// Package telemetry is the fleet observatory of the measurement harness:
// a streaming aggregator that ingests every completed analysis
// (core.AppResult plus its span tree) and maintains online, mergeable,
// paper-style aggregates — DCL prevalence by loader kind, provenance and
// responsible entity, bouncer verdicts, packer and obfuscation counts,
// cross-shard-mergeable stage-latency histograms, a space-saving top-K of
// SDK entities, the slowest analyses, and bounded rings of recent DCL
// events and failures.
//
// The aggregate state lives in a Snapshot, the serialization and merge
// unit: the vetting daemon serves its live snapshot at /v1/fleet (and an
// HTML rendering at /v1/dashboard), each experiments shard writes one as
// fleet.json, and `apkinspect fleet merge` folds shard snapshots into the
// single-fleet report. Merging the per-shard snapshots of a partitioned
// corpus reproduces the unpartitioned aggregate exactly (see Merge and
// the associativity property tests).
//
// The snapshot builds on the shared primitives of internal/metrics: stage
// latencies are metrics.Hist, and the slowest-analyses list and the
// recent DCL and error rings are metrics.Ring, ordered by every
// serialized field so merges serialize identically in any order.
package telemetry

import (
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/trace"
)

// Default sketch capacities.
const (
	// DefaultTopK bounds the SDK-entity space-saving sketch.
	DefaultTopK = 32
	// DefaultSlowest bounds the slowest-analyses list.
	DefaultSlowest = 10
	// DefaultRing bounds the recent-event rings.
	DefaultRing = 32
)

// Options configure an Aggregator.
type Options struct {
	// TopK bounds the SDK-entity sketch (default DefaultTopK).
	TopK int
	// Slowest bounds the slowest-analyses list (default DefaultSlowest).
	Slowest int
	// Ring bounds the recent DCL / recent error rings (default
	// DefaultRing).
	Ring int
	// SLO declares the tracked service objectives (zero values pick the
	// defaults: 99.9% scan availability, 99% of analyses under 2s).
	SLO SLOOptions
}

// Aggregator is the streaming fleet aggregate. All methods are safe for
// concurrent use and no-ops on a nil receiver, so callers can thread an
// optional *Aggregator without nil checks.
type Aggregator struct {
	mu   sync.Mutex
	snap *Snapshot
}

// New creates an empty aggregator.
func New(opts Options) *Aggregator {
	snap := NewSnapshot(opts.TopK, opts.Slowest, opts.Ring)
	snap.SLO = NewSLOState(opts.SLO)
	return &Aggregator{snap: snap}
}

// ObserveApp folds one completed analysis into the aggregate. tr, when
// non-nil, contributes the stage-latency histograms, the slowest-apps
// list and the event timestamps (the root span's end time — deterministic
// for a given set of traces, so shard snapshots merge reproducibly). A
// nil trace (e.g. a warm-start cache hit) still counts every measurement
// aggregate.
func (a *Aggregator) ObserveApp(res *core.AppResult, tr *trace.Trace) {
	if a == nil || res == nil {
		return
	}
	var at time.Time
	if tr != nil && tr.Root != nil {
		at = tr.Root.EndAt
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.snap
	s.Apps++
	c := s.Counters
	c["status."+string(res.Status)]++

	// Prevalence: candidate sets from the pipeline's own static
	// pre-filter, interception from the dynamic events (Table II shape).
	if res.Status != core.StatusUnpackFailure {
		if res.PreFilter.HasDexDCL {
			c["apps.dex-candidate"]++
		}
		if res.PreFilter.HasNativeDCL {
			c["apps.native-candidate"]++
		}
	}

	var dexOwn, dexThird, natOwn, natThird, anyDex, anyNative, anyRemote bool
	for _, ev := range res.Events {
		if ev.SystemLib {
			continue
		}
		c["dcl.kind."+string(ev.Kind)]++
		c["dcl.api."+ev.API]++
		c["dcl.provenance."+string(ev.Provenance)]++
		c["dcl.entity."+string(ev.Entity)]++
		switch ev.Kind {
		case core.KindDex:
			anyDex = true
		case core.KindNative:
			anyNative = true
		}
		switch ev.Entity {
		case core.EntityOwn:
			if ev.Kind == core.KindDex {
				dexOwn = true
			} else {
				natOwn = true
			}
		case core.EntityThirdParty:
			if ev.Kind == core.KindDex {
				dexThird = true
			} else {
				natThird = true
			}
			s.TopEntities.Observe(ev.CallSite)
		}
		if ev.Provenance == core.ProvenanceRemote {
			anyRemote = true
		}
		s.RecentDCL.Observe(RecentDCL{
			Time: at, Package: res.Package, Kind: string(ev.Kind), API: ev.API,
			Path: ev.Path, Entity: string(ev.Entity), Provenance: string(ev.Provenance),
			SourceURL: ev.SourceURL,
		})
	}
	countIf(c, "apps.dex-dcl", anyDex)
	countIf(c, "apps.native-dcl", anyNative)
	countIf(c, "apps.remote", anyRemote)
	countIf(c, "apps.dex-entity.own", dexOwn)
	countIf(c, "apps.dex-entity.third-party", dexThird)
	countIf(c, "apps.dex-entity.both", dexOwn && dexThird)
	countIf(c, "apps.native-entity.own", natOwn)
	countIf(c, "apps.native-entity.third-party", natThird)
	countIf(c, "apps.native-entity.both", natOwn && natThird)

	// Obfuscation and packer adoption (Table VI shape; DEX encryption is
	// the packer signal).
	o := res.Obfuscation
	countIf(c, "obfuscation.lexical", o.Lexical)
	countIf(c, "obfuscation.reflection", o.Reflection)
	countIf(c, "obfuscation.native", o.Native)
	countIf(c, "obfuscation.dex-encryption", o.DEXEncryption)
	countIf(c, "obfuscation.anti-decompile", o.AntiDecompile)

	countIf(c, "apps.malware", len(res.Malware) > 0)
	c["malware.hits"] += int64(len(res.Malware))
	for _, hit := range res.Malware {
		c["malware.family."+hit.Family]++
	}
	for _, v := range res.Vulns {
		c["vuln."+string(v.Kind)]++
	}
	countIf(c, "apps.vulnerable", len(res.Vulns) > 0)
	countIf(c, "apps.privacy-leak", res.Privacy != nil && len(res.Privacy.LeakedTypes()) > 0)

	if tr != nil && tr.Root != nil {
		tr.Root.Walk(func(sp *trace.Span) {
			h := s.Stages[sp.Name]
			if h == nil {
				h = &metrics.Hist{}
				s.Stages[sp.Name] = h
			}
			h.Observe(sp.Duration())
		})
		s.SlowestApps.Observe(SlowApp{
			Package: res.Package, Digest: tr.Digest, NS: int64(tr.Root.Duration()),
		})
		// SLO verdicts: a completed analysis is availability-good; it is
		// latency-good when the whole run beat the declared threshold. The
		// trace's end time keys the minute bucket, so shard merges stay
		// deterministic.
		if av := s.SLO.find(SLOScanAvailability); av != nil {
			av.observe(at, true)
		}
		if lat := s.SLO.find(SLOAnalyzeLatency); lat != nil {
			lat.observe(at, int64(tr.Root.Duration()) <= lat.ThresholdNS)
		}
	}
}

// countIf bumps key when cond holds.
func countIf(c map[string]int64, key string, cond bool) {
	if cond {
		c[key]++
	}
}

// ObserveVerdict folds one marketplace review verdict into the aggregate.
func (a *Aggregator) ObserveVerdict(approved bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if approved {
		a.snap.Counters["verdict.approved"]++
	} else {
		a.snap.Counters["verdict.rejected"]++
	}
}

// ObserveError records one analysis failure. tr, when non-nil, provides
// the failure timestamp (its root span end time).
func (a *Aggregator) ObserveError(pkg string, err error, tr *trace.Trace) {
	if a == nil || err == nil {
		return
	}
	var at time.Time
	if tr != nil && tr.Root != nil {
		at = tr.Root.EndAt
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snap.Errors++
	a.snap.RecentErrors.Observe(RecentError{Time: at, Package: pkg, Err: err.Error()})
	if av := a.snap.SLO.find(SLOScanAvailability); av != nil {
		av.observe(at, false)
	}
}

// Snapshot returns a deep copy of the current aggregate, safe to
// serialize or merge while ingestion continues.
func (a *Aggregator) Snapshot() *Snapshot {
	if a == nil {
		return NewSnapshot(0, 0, 0)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.snap
	cp := &Snapshot{
		Version:      s.Version,
		Shards:       s.Shards,
		Apps:         s.Apps,
		Errors:       s.Errors,
		Counters:     make(map[string]int64, len(s.Counters)),
		Stages:       make(map[string]*metrics.Hist, len(s.Stages)),
		TopEntities:  TopK{K: s.TopEntities.K, Entries: append([]TopEntry(nil), s.TopEntities.Entries...)},
		SlowestApps:  s.SlowestApps.Clone(),
		RecentDCL:    s.RecentDCL.Clone(),
		RecentErrors: s.RecentErrors.Clone(),
		Events:       s.Events.Clone(),
		SLO:          s.SLO.clone(),
	}
	for k, v := range s.Counters {
		cp.Counters[k] = v
	}
	for name, h := range s.Stages {
		cp.Stages[name] = h.Clone()
	}
	return cp
}

// SLOReports evaluates the live SLO state's burn-rate reports at now
// without deep-copying the whole snapshot — the per-analysis alert check
// the profile-capture trigger uses.
func (a *Aggregator) SLOReports(now time.Time) []SLOReport {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.snap.SLO == nil {
		return nil
	}
	return a.snap.SLO.Reports(now)
}
