package telemetry

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/trace"
)

// sloBase anchors every SLO test at a fixed wall-clock instant.
var sloBase = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

func defaultSLO() *SLOState { return NewSLOState(SLOOptions{}) }

func TestNewSLOStateDefaults(t *testing.T) {
	s := defaultSLO()
	av := s.find(SLOScanAvailability)
	if av == nil || av.Target != DefaultAvailabilityTarget {
		t.Fatalf("availability objective = %+v", av)
	}
	lat := s.find(SLOAnalyzeLatency)
	if lat == nil || lat.Target != DefaultLatencyTarget || lat.ThresholdNS != int64(DefaultLatencyThreshold) {
		t.Fatalf("latency objective = %+v", lat)
	}
	wantCap := int(DefaultSLORetention / (SLOBucketSeconds * time.Second))
	if av.Cap != wantCap {
		t.Fatalf("cap = %d, want %d", av.Cap, wantCap)
	}
	if s.find("no-such-objective") != nil {
		t.Fatal("find invented an objective")
	}
}

func TestSLOObserveBucketsByMinute(t *testing.T) {
	s := defaultSLO()
	av := s.find(SLOScanAvailability)
	av.observe(sloBase, true)
	av.observe(sloBase.Add(10*time.Second), true)
	av.observe(sloBase.Add(59*time.Second), false)
	av.observe(sloBase.Add(60*time.Second), true)
	av.observe(time.Time{}, false) // zero time: skipped
	if len(av.Buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(av.Buckets))
	}
	b0, b1 := av.Buckets[0], av.Buckets[1]
	if b0.Good != 2 || b0.Bad != 1 || b1.Good != 1 || b1.Bad != 0 {
		t.Fatalf("buckets = %+v %+v", b0, b1)
	}
	if b0.Start%SLOBucketSeconds != 0 || b1.Start-b0.Start != SLOBucketSeconds {
		t.Fatalf("bucket starts %d %d not minute-aligned", b0.Start, b1.Start)
	}
}

// TestSLOMergeEqualsUnion: bucket series merge by summation, so sharded
// observation reproduces the single-pass series in any merge order —
// required for the snapshot-wide shard-merge-equals-unsharded property.
func TestSLOMergeEqualsUnion(t *testing.T) {
	union := defaultSLO()
	shards := []*SLOState{defaultSLO(), defaultSLO(), defaultSLO()}
	for i := 0; i < 240; i++ {
		at := sloBase.Add(time.Duration(i) * 37 * time.Second)
		good := i%11 != 0
		union.find(SLOScanAvailability).observe(at, good)
		shards[i%3].find(SLOScanAvailability).observe(at, good)
		fast := i%7 != 0
		union.find(SLOAnalyzeLatency).observe(at, fast)
		shards[i%3].find(SLOAnalyzeLatency).observe(at, fast)
	}
	want, err := json.Marshal(union)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		got := defaultSLO()
		for _, i := range order {
			got.Merge(shards[i].clone())
		}
		raw, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(want) {
			t.Errorf("merge order %v diverges:\n got: %.200s\nwant: %.200s", order, raw, want)
		}
	}
}

// TestSLOMergeCarriesForeignObjectives: objectives declared by only one
// side survive the merge, name-sorted.
func TestSLOMergeCarriesForeignObjectives(t *testing.T) {
	a := defaultSLO()
	b := &SLOState{Objectives: []SLOObjective{{Name: "zz-custom", Target: 0.95, Cap: 10}}}
	b.Objectives[0].observe(sloBase, true)
	a.Merge(b)
	if got := a.find("zz-custom"); got == nil || len(got.Buckets) != 1 {
		t.Fatalf("foreign objective not carried: %+v", got)
	}
	for i := 1; i < len(a.Objectives); i++ {
		if a.Objectives[i].Name < a.Objectives[i-1].Name {
			t.Fatal("objectives not name-sorted after merge")
		}
	}
}

// TestSLOBurnRateMath checks the burn-rate arithmetic against hand
// computation: with a 99.9% target the budgeted error ratio is 0.1%, so
// a 2% observed error rate burns at 20x.
func TestSLOBurnRateMath(t *testing.T) {
	s := defaultSLO()
	av := s.find(SLOScanAvailability)
	now := sloBase.Add(30 * time.Minute)
	// 100 events in the last half hour, 2 bad.
	for i := 0; i < 100; i++ {
		av.observe(sloBase.Add(time.Duration(i)*15*time.Second), i >= 2)
	}
	r := av.Report(now)
	if r.Fast.Events != 100 || r.Fast.Bad != 2 {
		t.Fatalf("fast window = %+v", r.Fast)
	}
	if want := 0.02; r.Fast.ErrorRate != want {
		t.Fatalf("error rate = %g, want %g", r.Fast.ErrorRate, want)
	}
	wantBurn := 0.02 / (1 - DefaultAvailabilityTarget)
	if diff := r.Fast.BurnRate - wantBurn; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("burn rate = %g, want %g", r.Fast.BurnRate, wantBurn)
	}
	if r.Alert != AlertFastBurn {
		t.Fatalf("alert = %q, want fast-burn at %.1fx", r.Alert, wantBurn)
	}
	wantBudget := 2.0 / (100 * (1 - DefaultAvailabilityTarget))
	if diff := r.BudgetUsed - wantBudget; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("budget used = %g, want %g", r.BudgetUsed, wantBudget)
	}
}

// TestSLOAlertPrecedence: all-good traffic reports ok; an old burst of
// errors outside the 1h window but inside the 6h window trips only the
// slow alert.
func TestSLOAlertPrecedence(t *testing.T) {
	s := defaultSLO()
	av := s.find(SLOScanAvailability)
	now := sloBase.Add(5 * time.Hour)
	// A bad burst 4 hours ago: 10 of 100 failed (10% error -> burn 100x
	// over any window containing only it).
	for i := 0; i < 100; i++ {
		av.observe(sloBase.Add(time.Duration(i)*time.Second), i >= 10)
	}
	// A clean recent hour dilutes the fast window to zero errors.
	for i := 0; i < 50; i++ {
		av.observe(now.Add(-time.Duration(i)*time.Minute/2), true)
	}
	r := av.Report(now)
	if r.Fast.Bad != 0 || r.Fast.BurnRate != 0 {
		t.Fatalf("fast window saw old errors: %+v", r.Fast)
	}
	if r.Alert != AlertSlowBurn {
		t.Fatalf("alert = %q, want slow-burn (6h burn %.1fx)", r.Alert, r.Slow.BurnRate)
	}

	// All-good traffic: ok.
	s2 := defaultSLO()
	av2 := s2.find(SLOScanAvailability)
	for i := 0; i < 40; i++ {
		av2.observe(sloBase.Add(time.Duration(i)*time.Minute), true)
	}
	if r2 := av2.Report(sloBase.Add(time.Hour)); r2.Alert != AlertOK {
		t.Fatalf("clean traffic alert = %q", r2.Alert)
	}
}

// TestSLOTrimKeepsNewestBuckets: retention bounds the series.
func TestSLOTrimKeepsNewestBuckets(t *testing.T) {
	s := NewSLOState(SLOOptions{Retention: 5 * time.Minute})
	av := s.find(SLOScanAvailability)
	if av.Cap != 5 {
		t.Fatalf("cap = %d, want 5", av.Cap)
	}
	for i := 0; i < 20; i++ {
		av.observe(sloBase.Add(time.Duration(i)*time.Minute), true)
	}
	if len(av.Buckets) != 5 {
		t.Fatalf("buckets = %d, want 5", len(av.Buckets))
	}
	if av.Buckets[4].Start != sloBase.Add(19*time.Minute).Unix() {
		t.Fatalf("newest bucket start = %d", av.Buckets[4].Start)
	}
}

// sloApp builds a minimal completed analysis taking total wall time.
func sloApp(i int, total time.Duration) (*core.AppResult, *trace.Trace) {
	res := &core.AppResult{Package: fmt.Sprintf("com.slo.app%d", i), Status: core.StatusExercised}
	return res, appTrace(fmt.Sprintf("%02x", i), sloBase.Add(time.Duration(i)*time.Second), total, total/2)
}

// TestAggregatorFeedsSLO: ObserveApp / ObserveError verdicts land in the
// right objectives, and the snapshot deep-copies the state.
func TestAggregatorFeedsSLO(t *testing.T) {
	agg := New(Options{})
	slow, trSlow := sloApp(0, 3*time.Second)
	agg.ObserveApp(slow, trSlow)
	fast, trFast := sloApp(1, 100*time.Millisecond)
	agg.ObserveApp(fast, trFast)
	_, trErr := sloApp(2, time.Second)
	agg.ObserveError("com.broken", errFake("vm exploded"), trErr)

	snap := agg.Snapshot()
	if snap.SLO == nil {
		t.Fatal("snapshot dropped SLO state")
	}
	av := snap.SLO.find(SLOScanAvailability)
	g, b := sumBuckets(av)
	if g != 2 || b != 1 {
		t.Fatalf("availability good/bad = %d/%d, want 2/1", g, b)
	}
	lat := snap.SLO.find(SLOAnalyzeLatency)
	g, b = sumBuckets(lat)
	if g != 1 || b != 1 {
		t.Fatalf("latency good/bad = %d/%d, want 1/1 (3s run over 2s threshold)", g, b)
	}
	// Deep copy: mutating the snapshot must not touch the live aggregate.
	av.Buckets[0].Bad = 999
	if g, b := sumBuckets(agg.Snapshot().SLO.find(SLOScanAvailability)); g != 2 || b != 1 {
		t.Fatalf("snapshot aliases live state: %d/%d", g, b)
	}
}

func sumBuckets(o *SLOObjective) (good, bad int64) {
	for _, b := range o.Buckets {
		good += b.Good
		bad += b.Bad
	}
	return
}
