package metrics

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestExportedBucketScheme(t *testing.T) {
	for _, d := range []time.Duration{0, time.Microsecond, 3 * time.Millisecond, time.Hour} {
		i := bucketOf(d)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketOf(%v) = %d out of range", d, i)
		}
		if d > 0 && d > bucketBound(i) && i < numBuckets-1 {
			t.Fatalf("bucketOf(%v) = %d but bound is only %v", d, i, bucketBound(i))
		}
	}
	if bucketBound(0) != time.Microsecond {
		t.Fatalf("bucketBound(0) = %v", bucketBound(0))
	}
	// A Hist stores exactly the buckets up to its largest observation.
	var h Hist
	h.Observe(3 * time.Millisecond)
	if len(h.Buckets) != bucketOf(3*time.Millisecond)+1 {
		t.Fatalf("hist stores %d buckets, want %d", len(h.Buckets), bucketOf(3*time.Millisecond)+1)
	}
}

// TestHistMatchesMetricsBuckets: the registry's histograms are the shared
// Hist, so its point read and its Prometheus exposition agree with a
// standalone Hist fed the same observations.
func TestHistMatchesMetricsBuckets(t *testing.T) {
	h := &Hist{}
	reg := New()
	for _, d := range []time.Duration{3 * time.Microsecond, 900 * time.Microsecond, 12 * time.Millisecond, 12 * time.Millisecond} {
		h.Observe(d)
		reg.Observe("stage", d)
	}
	want := reg.HistSnapshot("stage")
	if h.Count != want.Count || h.Quantile(0.5) != want.P50 || time.Duration(h.MaxNS) != want.Max {
		t.Fatalf("hist (count=%d p50=%v max=%v) disagrees with metrics (count=%d p50=%v max=%v)",
			h.Count, h.Quantile(0.5), time.Duration(h.MaxNS), want.Count, want.P50, want.Max)
	}
	if h.Quantile(0.9) != want.P90 || h.Quantile(0.99) != want.P99 {
		t.Fatalf("hist p90/p99 = %v/%v, metrics = %v/%v", h.Quantile(0.9), h.Quantile(0.99), want.P90, want.P99)
	}

	var b strings.Builder
	reg.WritePrometheus(&b)
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "dydroid_stage_seconds_bucket{") {
			got = append(got, line)
		}
	}
	var wantLines []string
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		wantLines = append(wantLines, fmt.Sprintf(`dydroid_stage_seconds_bucket{le="%g"} %d`, bucketBound(i).Seconds(), cum))
	}
	wantLines = append(wantLines, fmt.Sprintf(`dydroid_stage_seconds_bucket{le="+Inf"} %d`, h.Count))
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Fatalf("prometheus le lines diverge from Hist\n got:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(wantLines, "\n"))
	}
}
