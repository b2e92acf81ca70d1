package telemetry

import (
	"fmt"
	"sort"
	"time"
)

// The SLO engine tracks declared service objectives over rolling,
// mergeable error budgets. Each objective classifies every analysis as
// good or bad (availability: did it succeed; latency: did it finish under
// the threshold) and folds the verdict into minute-wide time buckets.
// Buckets are keyed by absolute minute and merge by summation, so the SLO
// state shards and federates exactly like every other snapshot field:
// merging per-node states reproduces the single-node state of the same
// analyses, in any merge order.
//
// Burn rates follow the multi-window convention: the error-budget burn
// rate over a window is (observed error ratio) / (budgeted error ratio).
// A burn rate of 1 spends the budget exactly at the objective's pace; the
// fast window (1h) paging at 14.4x and the slow window (6h) at 6x are the
// classic thresholds that exhaust 2% and 5% of a 30-day budget
// respectively before alerting.
const (
	// SLOBucketSeconds is the bucket width of every objective series.
	SLOBucketSeconds = 60
	// DefaultSLORetention bounds how much history an objective keeps —
	// enough to evaluate the slow burn window with headroom.
	DefaultSLORetention = 12 * time.Hour
	// FastBurnWindow / SlowBurnWindow are the two alerting windows.
	FastBurnWindow = time.Hour
	SlowBurnWindow = 6 * time.Hour
	// FastBurnThreshold / SlowBurnThreshold are the alerting burn rates.
	FastBurnThreshold = 14.4
	SlowBurnThreshold = 6.0

	// DefaultAvailabilityTarget: 99.9% of analyses succeed.
	DefaultAvailabilityTarget = 0.999
	// DefaultLatencyTarget / DefaultLatencyThreshold: 99% of analyses
	// finish within the threshold.
	DefaultLatencyTarget    = 0.99
	DefaultLatencyThreshold = 2 * time.Second
)

// Objective names used by the default SLO set.
const (
	SLOScanAvailability = "scan-availability"
	SLOAnalyzeLatency   = "analyze-latency-p99"
)

// SLOOptions declare the tracked objectives. Zero values pick defaults.
type SLOOptions struct {
	// AvailabilityTarget is the fraction of analyses that must succeed.
	AvailabilityTarget float64
	// LatencyTarget is the fraction of analyses that must finish within
	// LatencyThreshold.
	LatencyTarget float64
	// LatencyThreshold is the latency objective's cutoff.
	LatencyThreshold time.Duration
	// Retention bounds each objective's bucket history.
	Retention time.Duration
}

// SLOBucket is one minute of good/bad verdicts.
type SLOBucket struct {
	// Start is the bucket's start in unix seconds (a multiple of
	// SLOBucketSeconds).
	Start int64 `json:"start"`
	Good  int64 `json:"good"`
	Bad   int64 `json:"bad"`
}

// SLOObjective is one declared objective with its rolling bucket series
// (ascending by Start, bounded to Cap newest buckets).
type SLOObjective struct {
	Name   string  `json:"name"`
	Target float64 `json:"target"`
	// ThresholdNS is the latency cutoff for latency objectives (0 for
	// availability).
	ThresholdNS int64 `json:"threshold_ns,omitempty"`
	// Cap bounds the retained buckets.
	Cap     int         `json:"cap"`
	Buckets []SLOBucket `json:"buckets,omitempty"`
}

// SLOState is the snapshot's SLO field: every declared objective, sorted
// by name for deterministic serialization.
type SLOState struct {
	Objectives []SLOObjective `json:"objectives"`
}

// NewSLOState declares the default objective set from opts.
func NewSLOState(opts SLOOptions) *SLOState {
	if opts.AvailabilityTarget <= 0 || opts.AvailabilityTarget >= 1 {
		opts.AvailabilityTarget = DefaultAvailabilityTarget
	}
	if opts.LatencyTarget <= 0 || opts.LatencyTarget >= 1 {
		opts.LatencyTarget = DefaultLatencyTarget
	}
	if opts.LatencyThreshold <= 0 {
		opts.LatencyThreshold = DefaultLatencyThreshold
	}
	if opts.Retention <= 0 {
		opts.Retention = DefaultSLORetention
	}
	cap := int(opts.Retention / (SLOBucketSeconds * time.Second))
	if cap < 1 {
		cap = 1
	}
	return &SLOState{Objectives: []SLOObjective{
		{Name: SLOAnalyzeLatency, Target: opts.LatencyTarget, ThresholdNS: int64(opts.LatencyThreshold), Cap: cap},
		{Name: SLOScanAvailability, Target: opts.AvailabilityTarget, Cap: cap},
	}}
}

// observe folds one verdict into the objective at time at. Zero times are
// skipped: an observation without a trustworthy timestamp (e.g. a
// warm-start cache hit with no trace) cannot land in a bucket
// deterministically.
func (o *SLOObjective) observe(at time.Time, good bool) {
	if at.IsZero() {
		return
	}
	start := at.Unix() - at.Unix()%SLOBucketSeconds
	i := sort.Search(len(o.Buckets), func(i int) bool { return o.Buckets[i].Start >= start })
	if i == len(o.Buckets) || o.Buckets[i].Start != start {
		o.Buckets = append(o.Buckets, SLOBucket{})
		copy(o.Buckets[i+1:], o.Buckets[i:])
		o.Buckets[i] = SLOBucket{Start: start}
	}
	if good {
		o.Buckets[i].Good++
	} else {
		o.Buckets[i].Bad++
	}
	o.trim()
}

// trim keeps the newest Cap buckets.
func (o *SLOObjective) trim() {
	if o.Cap > 0 && len(o.Buckets) > o.Cap {
		o.Buckets = o.Buckets[len(o.Buckets)-o.Cap:]
	}
}

// merge folds src into o bucket-for-bucket. Differing declarations keep
// the stricter (larger) target, threshold and cap so the merge stays
// commutative.
func (o *SLOObjective) merge(src SLOObjective) {
	if src.Target > o.Target {
		o.Target = src.Target
	}
	if src.ThresholdNS > o.ThresholdNS {
		o.ThresholdNS = src.ThresholdNS
	}
	if src.Cap > o.Cap {
		o.Cap = src.Cap
	}
	merged := make([]SLOBucket, 0, len(o.Buckets)+len(src.Buckets))
	i, j := 0, 0
	for i < len(o.Buckets) || j < len(src.Buckets) {
		switch {
		case j == len(src.Buckets) || (i < len(o.Buckets) && o.Buckets[i].Start < src.Buckets[j].Start):
			merged = append(merged, o.Buckets[i])
			i++
		case i == len(o.Buckets) || src.Buckets[j].Start < o.Buckets[i].Start:
			merged = append(merged, src.Buckets[j])
			j++
		default:
			merged = append(merged, SLOBucket{
				Start: o.Buckets[i].Start,
				Good:  o.Buckets[i].Good + src.Buckets[j].Good,
				Bad:   o.Buckets[i].Bad + src.Buckets[j].Bad,
			})
			i++
			j++
		}
	}
	o.Buckets = merged
	o.trim()
}

// clone deep-copies the state.
func (s *SLOState) clone() *SLOState {
	if s == nil {
		return nil
	}
	cp := &SLOState{Objectives: make([]SLOObjective, len(s.Objectives))}
	for i, o := range s.Objectives {
		o.Buckets = append([]SLOBucket(nil), o.Buckets...)
		cp.Objectives[i] = o
	}
	return cp
}

// find returns the objective named name, or nil.
func (s *SLOState) find(name string) *SLOObjective {
	if s == nil {
		return nil
	}
	for i := range s.Objectives {
		if s.Objectives[i].Name == name {
			return &s.Objectives[i]
		}
	}
	return nil
}

// Merge folds src into s by objective name; objectives only one side
// declares are carried over. Objectives stay name-sorted so the merged
// serialization is deterministic.
func (s *SLOState) Merge(src *SLOState) {
	if src == nil {
		return
	}
	for _, so := range src.Objectives {
		if cur := s.find(so.Name); cur != nil {
			cur.merge(so)
			continue
		}
		so.Buckets = append([]SLOBucket(nil), so.Buckets...)
		s.Objectives = append(s.Objectives, so)
	}
	sort.Slice(s.Objectives, func(i, j int) bool { return s.Objectives[i].Name < s.Objectives[j].Name })
}

// BurnWindow is one alerting window's worth of budget arithmetic.
type BurnWindow struct {
	// Window is the evaluated span ("1h0m0s", "6h0m0s").
	Window string `json:"window"`
	// Events and Bad count the verdicts inside the window.
	Events int64 `json:"events"`
	Bad    int64 `json:"bad"`
	// ErrorRate is Bad/Events (0 with no events).
	ErrorRate float64 `json:"error_rate"`
	// BurnRate is ErrorRate divided by the objective's budgeted error
	// ratio: 1.0 spends the budget exactly at pace.
	BurnRate float64 `json:"burn_rate"`
}

// SLOReport is one objective's evaluated burn-rate view at a point in
// time — the shape /v1/fleet serves and the Prometheus exposition renders.
type SLOReport struct {
	Name        string  `json:"name"`
	Target      float64 `json:"target"`
	ThresholdNS int64   `json:"threshold_ns,omitempty"`
	Fast        BurnWindow `json:"fast"`
	Slow        BurnWindow `json:"slow"`
	// BudgetUsed is the fraction of the error budget spent over the whole
	// retained series (may exceed 1 when the objective is blown).
	BudgetUsed float64 `json:"budget_used"`
	// Alert is "ok", "fast-burn" (1h burn ≥ 14.4) or "slow-burn"
	// (6h burn ≥ 6). Fast burn wins when both fire.
	Alert string `json:"alert"`
}

// Alert values.
const (
	AlertOK       = "ok"
	AlertFastBurn = "fast-burn"
	AlertSlowBurn = "slow-burn"
)

// window sums the buckets newer than now-span.
func (o *SLOObjective) window(now time.Time, span time.Duration) (good, bad int64) {
	cut := now.Add(-span).Unix()
	for i := len(o.Buckets) - 1; i >= 0; i-- {
		b := o.Buckets[i]
		if b.Start+SLOBucketSeconds <= cut {
			break
		}
		good += b.Good
		bad += b.Bad
	}
	return good, bad
}

// burnWindow evaluates one window.
func (o *SLOObjective) burnWindow(now time.Time, span time.Duration) BurnWindow {
	good, bad := o.window(now, span)
	w := BurnWindow{Window: span.String(), Events: good + bad, Bad: bad}
	if w.Events > 0 {
		w.ErrorRate = float64(bad) / float64(w.Events)
	}
	if budget := 1 - o.Target; budget > 0 {
		w.BurnRate = w.ErrorRate / budget
	}
	return w
}

// Report evaluates the objective's burn rates at now.
func (o *SLOObjective) Report(now time.Time) SLOReport {
	r := SLOReport{
		Name:        o.Name,
		Target:      o.Target,
		ThresholdNS: o.ThresholdNS,
		Fast:        o.burnWindow(now, FastBurnWindow),
		Slow:        o.burnWindow(now, SlowBurnWindow),
		Alert:       AlertOK,
	}
	var good, bad int64
	for _, b := range o.Buckets {
		good += b.Good
		bad += b.Bad
	}
	if allowed := float64(good+bad) * (1 - o.Target); allowed > 0 {
		r.BudgetUsed = float64(bad) / allowed
	}
	switch {
	case r.Fast.BurnRate >= FastBurnThreshold:
		r.Alert = AlertFastBurn
	case r.Slow.BurnRate >= SlowBurnThreshold:
		r.Alert = AlertSlowBurn
	}
	return r
}

// Reports evaluates every objective at now, in name order.
func (s *SLOState) Reports(now time.Time) []SLOReport {
	if s == nil {
		return nil
	}
	out := make([]SLOReport, 0, len(s.Objectives))
	for i := range s.Objectives {
		out = append(out, s.Objectives[i].Report(now))
	}
	return out
}

// String renders a one-line summary of a report (log and CLI friendly).
func (r SLOReport) String() string {
	return fmt.Sprintf("%s target=%.4g burn1h=%.2f burn6h=%.2f alert=%s",
		r.Name, r.Target, r.Fast.BurnRate, r.Slow.BurnRate, r.Alert)
}
