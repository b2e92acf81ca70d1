package telemetry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
)

// SnapshotVersion stamps every serialized snapshot. Merge refuses
// snapshots from a different version, so a fleet of mixed-binary shards
// fails loudly instead of producing silently skewed aggregates.
const SnapshotVersion = 1

// Snapshot is a point-in-time, serializable copy of a fleet aggregate.
// Snapshots are the merge unit of the fleet observatory: each experiment
// shard writes one (fleet.json), the daemon serves a live one at
// /v1/fleet, and `apkinspect fleet merge` folds any number of them into
// the single-fleet aggregate.
//
// Every field merges exactly — counter maps sum, histograms add
// bucket-for-bucket, and the order-statistic lists (SlowestApps,
// RecentDCL, RecentErrors) select the global top/newest K, which is
// associative and commutative. The one approximation is TopEntities: a
// space-saving sketch whose merge is exact while the number of distinct
// keys stays within its capacity (the common case for SDK entities) and
// a bounded-error estimate beyond it.
type Snapshot struct {
	Version int `json:"version"`
	// Shards counts the per-run snapshots folded into this one (1 for a
	// freshly aggregated run).
	Shards int `json:"shards"`
	// Apps is the number of AppResults ingested.
	Apps int64 `json:"apps"`
	// Errors counts analysis failures observed (ObserveError calls).
	Errors int64 `json:"errors"`

	// Counters holds the paper-style measurement counts under namespaced
	// keys: status.<status>, apps.<predicate>, dcl.kind.<kind>,
	// dcl.api.<API>, dcl.provenance.<p>, dcl.entity.<e>,
	// obfuscation.<technique>, malware.family.<family>, vuln.<kind>,
	// verdict.approved / verdict.rejected.
	Counters map[string]int64 `json:"counters,omitempty"`

	// Stages maps span names to mergeable latency distributions — the
	// same Hist the metrics registry keeps.
	Stages map[string]*metrics.Hist `json:"stages,omitempty"`

	// TopEntities is the space-saving sketch of the most common
	// third-party DCL call sites (the SDK entities of Table IV).
	TopEntities TopK `json:"top_entities"`

	// SlowestApps lists the slowest analyses by root span duration.
	SlowestApps metrics.Ring[SlowApp] `json:"slowest_apps"`

	// RecentDCL and RecentErrors are bounded newest-first rings of the
	// last DCL loads and analysis failures seen across the fleet.
	RecentDCL    metrics.Ring[RecentDCL]   `json:"recent_dcl"`
	RecentErrors metrics.Ring[RecentError] `json:"recent_errors"`

	// Events is the ops event journal slice riding in the snapshot: node
	// ejections, failovers, queue saturation, drains, watchdog hits. The
	// serving daemon fills it from its live journal at snapshot time;
	// merges select the newest K across shards exactly like the rings.
	Events events.Log `json:"events"`

	// SLO is the rolling multi-window error-budget state of the declared
	// objectives (scan availability, analyze latency). Buckets are keyed
	// by absolute minute and merge by summation — exact while the
	// retained histories overlap (the TopEntities-style caveat: a bucket
	// trimmed on one shard but alive on another merges approximately).
	SLO *SLOState `json:"slo,omitempty"`
}

// NewSnapshot returns an empty snapshot with the given sketch capacities
// (zero values pick the defaults used by New).
func NewSnapshot(topK, slowest, ring int) *Snapshot {
	if topK <= 0 {
		topK = DefaultTopK
	}
	if slowest <= 0 {
		slowest = DefaultSlowest
	}
	if ring <= 0 {
		ring = DefaultRing
	}
	return &Snapshot{
		Version:      SnapshotVersion,
		Shards:       1,
		Counters:     make(map[string]int64),
		Stages:       make(map[string]*metrics.Hist),
		TopEntities:  TopK{K: topK},
		SlowestApps:  metrics.Ring[SlowApp]{K: slowest},
		RecentDCL:    metrics.Ring[RecentDCL]{K: ring},
		RecentErrors: metrics.Ring[RecentError]{K: ring},
		Events:       events.Log{K: events.DefaultCap},
	}
}

// Merge folds src into dst. Both snapshots must carry the current
// SnapshotVersion. dst's sketch capacities grow to the larger of the two,
// so merging never truncates below either input's resolution.
func Merge(dst, src *Snapshot) error {
	if dst == nil || src == nil {
		return fmt.Errorf("telemetry: merge requires two snapshots")
	}
	if dst.Version != SnapshotVersion || src.Version != SnapshotVersion {
		return fmt.Errorf("telemetry: snapshot version mismatch (have %d and %d, want %d)",
			dst.Version, src.Version, SnapshotVersion)
	}
	dst.Shards += src.Shards
	dst.Apps += src.Apps
	dst.Errors += src.Errors
	if dst.Counters == nil {
		dst.Counters = make(map[string]int64, len(src.Counters))
	}
	for k, v := range src.Counters {
		dst.Counters[k] += v
	}
	if dst.Stages == nil {
		dst.Stages = make(map[string]*metrics.Hist, len(src.Stages))
	}
	for name, h := range src.Stages {
		if cur, ok := dst.Stages[name]; ok {
			cur.Merge(h)
		} else {
			dst.Stages[name] = h.Clone()
		}
	}
	dst.TopEntities.Merge(src.TopEntities)
	dst.SlowestApps.Merge(src.SlowestApps)
	dst.RecentDCL.Merge(src.RecentDCL)
	dst.RecentErrors.Merge(src.RecentErrors)
	dst.Events.Merge(src.Events)
	if src.SLO != nil {
		if dst.SLO == nil {
			dst.SLO = src.SLO.clone()
		} else {
			dst.SLO.Merge(src.SLO)
		}
	}
	return nil
}

// WriteFile atomically persists the snapshot as indented JSON.
func (s *Snapshot) WriteFile(path string) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// ReadSnapshot loads a snapshot written by WriteFile and validates its
// version.
func ReadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := new(Snapshot)
	if err := json.Unmarshal(raw, s); err != nil {
		return nil, fmt.Errorf("telemetry: %s: %w", path, err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("telemetry: %s: snapshot version %d, want %d", path, s.Version, SnapshotVersion)
	}
	return s, nil
}

// TopEntry is one tracked key of a TopK sketch.
type TopEntry struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	// Err bounds the overcount of Count introduced by space-saving
	// evictions (0 while the sketch has never overflowed — counts are
	// then exact).
	Err int64 `json:"err,omitempty"`
}

// TopK is a space-saving heavy-hitters sketch: at most K keys are
// tracked; inserting a new key into a full sketch evicts the smallest
// tracked key and inherits its count (the classic Metwally et al.
// construction). While distinct keys never exceed K the counts are exact
// and merging shards reproduces the single-pass sketch bit for bit.
type TopK struct {
	K       int        `json:"k"`
	Entries []TopEntry `json:"entries,omitempty"`
}

// Observe counts one occurrence of key. Only the touched entry's count
// grows, so it bubbles toward the front into canonical order; no sort.
func (t *TopK) Observe(key string) {
	i := slices.IndexFunc(t.Entries, func(e TopEntry) bool { return e.Key == key })
	switch {
	case i >= 0:
		t.Entries[i].Count++
	case len(t.Entries) < t.K:
		t.Entries = append(t.Entries, TopEntry{Key: key, Count: 1})
		i = len(t.Entries) - 1
	default:
		// Full: replace the minimum (the last entry in canonical order)
		// and inherit its count as the new key's error bound.
		i = len(t.Entries) - 1
		min := t.Entries[i]
		t.Entries[i] = TopEntry{Key: key, Count: min.Count + 1, Err: min.Count}
	}
	for ; i > 0 && t.Entries[i].Compare(t.Entries[i-1]) < 0; i-- {
		t.Entries[i], t.Entries[i-1] = t.Entries[i-1], t.Entries[i]
	}
}

// Merge folds o into t: counts and error bounds sum over the key union,
// then the sketch keeps the max(t.K, o.K) largest keys; the dropped tail
// is discarded (its mass is bounded by the surviving minimum).
func (t *TopK) Merge(o TopK) {
	if o.K > t.K {
		t.K = o.K
	}
	byKey := make(map[string]TopEntry, len(t.Entries)+len(o.Entries))
	for _, e := range t.Entries {
		byKey[e.Key] = e
	}
	for _, e := range o.Entries {
		cur := byKey[e.Key]
		cur.Key = e.Key
		cur.Count += e.Count
		cur.Err += e.Err
		byKey[e.Key] = cur
	}
	t.Entries = t.Entries[:0]
	for _, e := range byKey {
		t.Entries = append(t.Entries, e)
	}
	slices.SortFunc(t.Entries, TopEntry.Compare)
	if len(t.Entries) > t.K {
		t.Entries = t.Entries[:t.K]
	}
}

// Compare is the canonical sketch order: count desc, then key asc. It
// also keeps eviction deterministic.
func (e TopEntry) Compare(o TopEntry) int {
	return cmp.Or(cmp.Compare(o.Count, e.Count), cmp.Compare(e.Key, o.Key))
}

// SlowApp is one entry of the slowest-analyses list.
type SlowApp struct {
	Package string `json:"package"`
	Digest  string `json:"digest,omitempty"`
	NS      int64  `json:"ns"`
}

// Compare orders the slowest-analyses list: slowest first, then by
// package and digest.
func (e SlowApp) Compare(o SlowApp) int {
	return cmp.Or(cmp.Compare(o.NS, e.NS), cmp.Compare(e.Package, o.Package), cmp.Compare(e.Digest, o.Digest))
}

// RecentDCL is one recent dynamic code loading event.
type RecentDCL struct {
	Time       time.Time `json:"time"`
	Package    string    `json:"package"`
	Kind       string    `json:"kind"`
	API        string    `json:"api"`
	Path       string    `json:"path"`
	Entity     string    `json:"entity"`
	Provenance string    `json:"provenance"`
	SourceURL  string    `json:"source_url,omitempty"`
}

// Compare orders the recent-DCL ring newest first, then by every other
// field, so two loads that differ only in attribution never tie and
// merges serialize identically in either order.
func (e RecentDCL) Compare(o RecentDCL) int {
	return cmp.Or(o.Time.Compare(e.Time),
		cmp.Compare(e.Package, o.Package), cmp.Compare(e.Path, o.Path),
		cmp.Compare(e.API, o.API), cmp.Compare(e.Kind, o.Kind),
		cmp.Compare(e.Entity, o.Entity), cmp.Compare(e.Provenance, o.Provenance),
		cmp.Compare(e.SourceURL, o.SourceURL))
}

// RecentError is one recent analysis failure.
type RecentError struct {
	Time    time.Time `json:"time"`
	Package string    `json:"package"`
	Err     string    `json:"err"`
}

// Compare orders the recent-error ring newest first, then by package and
// message.
func (e RecentError) Compare(o RecentError) int {
	return cmp.Or(o.Time.Compare(e.Time), cmp.Compare(e.Package, o.Package), cmp.Compare(e.Err, o.Err))
}
