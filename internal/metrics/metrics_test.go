package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("apps", 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Counters["apps"]; got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestHistogramStats(t *testing.T) {
	r := New()
	for _, d := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 100 * time.Millisecond,
	} {
		r.Observe("stage.dynamic", d)
	}
	st := r.Snapshot().Stages["stage.dynamic"]
	if st.Count != 4 {
		t.Fatalf("count = %d, want 4", st.Count)
	}
	if want := 107 * time.Millisecond; st.Total != want {
		t.Fatalf("total = %s, want %s", st.Total, want)
	}
	if st.Min != time.Millisecond || st.Max != 100*time.Millisecond {
		t.Fatalf("min/max = %s/%s", st.Min, st.Max)
	}
	if st.Mean != st.Total/4 {
		t.Fatalf("mean = %s", st.Mean)
	}
	if st.P50 > st.P90 || st.P90 > st.P99 || st.P99 > st.Max {
		t.Fatalf("quantiles not monotone: p50=%s p90=%s p99=%s max=%s",
			st.P50, st.P90, st.P99, st.Max)
	}
	if st.P50 < st.Min {
		t.Fatalf("p50 %s below min %s", st.P50, st.Min)
	}
}

func TestTimeHelperRecords(t *testing.T) {
	r := New()
	stop := r.Time("stage.unpack")
	stop()
	st := r.Snapshot().Stages["stage.unpack"]
	if st.Count != 1 {
		t.Fatalf("count = %d, want 1", st.Count)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	r.Observe("y", time.Second)
	r.Time("z")()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Stages) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestSnapshotString(t *testing.T) {
	r := New()
	r.Add("status.exercised", 3)
	r.Observe("stage.unpack", 5*time.Millisecond)
	out := r.Snapshot().String()
	for _, want := range []string{"status.exercised", "stage.unpack", "p90"} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot rendering missing %q:\n%s", want, out)
		}
	}
}

func TestObserveConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe("s", time.Duration(w+1)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if st := r.Snapshot().Stages["s"]; st.Count != 4000 {
		t.Fatalf("count = %d, want 4000", st.Count)
	}
}

func TestCounterPointRead(t *testing.T) {
	r := New()
	if got := r.Counter("absent"); got != 0 {
		t.Fatalf("absent counter = %d", got)
	}
	r.Add("scan.cached", 2)
	r.Add("scan.cached", 3)
	if got := r.Counter("scan.cached"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var nilReg *Registry
	if got := nilReg.Counter("x"); got != 0 {
		t.Fatalf("nil registry counter = %d", got)
	}
}

func TestHistSnapshotPointRead(t *testing.T) {
	r := New()
	if got := r.HistSnapshot("absent"); got.Count != 0 {
		t.Fatalf("absent histogram count = %d", got.Count)
	}
	r.Observe("stage.unpack", 2*time.Millisecond)
	r.Observe("stage.unpack", 6*time.Millisecond)
	st := r.HistSnapshot("stage.unpack")
	if st.Count != 2 || st.Total != 8*time.Millisecond {
		t.Fatalf("point read = %+v, want count 2 total 8ms", st)
	}
	if full := r.Snapshot().Stages["stage.unpack"]; full != st {
		t.Fatalf("point read %+v differs from snapshot %+v", st, full)
	}
	var nilReg *Registry
	if got := nilReg.HistSnapshot("x"); got.Count != 0 {
		t.Fatal("nil registry HistSnapshot must be zero")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Add("service.scan.requests", 7)
	r.Add("status.no-dcl", 2)
	r.Observe("stage.unpack", 3*time.Millisecond)
	r.Observe("stage.unpack", 3*time.Millisecond)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE dydroid_service_scan_requests_total counter",
		"dydroid_service_scan_requests_total 7",
		"dydroid_status_no_dcl_total 2",
		"# TYPE dydroid_stage_unpack_seconds histogram",
		`dydroid_stage_unpack_seconds_bucket{le="+Inf"} 2`,
		"dydroid_stage_unpack_seconds_sum 0.006",
		"dydroid_stage_unpack_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets are cumulative: the 4.096ms bucket holds both observations.
	if !strings.Contains(out, `dydroid_stage_unpack_seconds_bucket{le="0.004096"} 2`) {
		t.Fatalf("cumulative bucket missing:\n%s", out)
	}
	var nilReg *Registry
	nilReg.WritePrometheus(&b) // must not panic
}

func TestGauges(t *testing.T) {
	r := New()
	if got := r.Gauge("queue.len"); got != 0 {
		t.Fatalf("unset gauge = %d, want 0", got)
	}
	r.SetGauge("queue.len", 5)
	r.AddGauge("queue.len", -2)
	r.AddGauge("heap.bytes", 1024)
	if got := r.Gauge("queue.len"); got != 3 {
		t.Fatalf("queue.len = %d, want 3", got)
	}
	snap := r.Snapshot()
	if snap.Gauges["queue.len"] != 3 || snap.Gauges["heap.bytes"] != 1024 {
		t.Fatalf("snapshot gauges = %v", snap.Gauges)
	}
	if out := snap.String(); !strings.Contains(out, "gauge") || !strings.Contains(out, "queue.len") {
		t.Fatalf("snapshot string missing gauge section:\n%s", out)
	}

	var nilReg *Registry
	nilReg.SetGauge("x", 1)
	nilReg.AddGauge("x", 1)
	if nilReg.Gauge("x") != 0 {
		t.Fatal("nil registry gauge should read 0")
	}
}

func TestGaugesConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.AddGauge("g", 1)
				r.AddGauge("g", -1)
			}
		}()
	}
	wg.Wait()
	if got := r.Gauge("g"); got != 0 {
		t.Fatalf("gauge after balanced adds = %d, want 0", got)
	}
}

func TestWritePrometheusGauge(t *testing.T) {
	r := New()
	r.SetGauge("trace.store.len", 42)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE dydroid_trace_store_len gauge",
		"dydroid_trace_store_len 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
}
