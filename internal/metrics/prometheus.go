package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// WritePrometheus renders every counter, gauge and histogram in the Prometheus
// text exposition format (version 0.0.4), the `/v1/metricz?format=prom`
// body of the vetting daemon. Metric names are prefixed "dydroid_" and
// sanitized (runs of non-alphanumerics collapse to '_'); histograms
// render cumulative le buckets in seconds plus _sum and _count, matching
// the registry's exponential microsecond bucketing.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	counters := make(map[string]*int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*int64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()

	for _, name := range sortedKeys(counters) {
		pn := promName(name) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n", pn)
		fmt.Fprintf(w, "%s %d\n", pn, atomic.LoadInt64(counters[name]))
	}
	for _, name := range sortedKeys(gauges) {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(w, "%s %d\n", pn, atomic.LoadInt64(gauges[name]))
	}
	for _, name := range sortedKeys(hists) {
		pn := promName(name) + "_seconds"
		h := hists[name].clone()
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		// Hist stores no trailing empty buckets; the rest collapse into
		// +Inf, and cumulative counts stay exact.
		var cum int64
		for i, n := range h.Buckets {
			cum += n
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", pn, bucketBound(i).Seconds(), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(w, "%s_sum %g\n", pn, time.Duration(h.SumNS).Seconds())
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
	}
}

// promName maps a registry name like "stage.unpack" or
// "status.no-dcl" to a Prometheus-safe "dydroid_stage_unpack" /
// "dydroid_status_no_dcl".
func promName(name string) string {
	var b strings.Builder
	b.WriteString("dydroid_")
	lastUnderscore := false
	for _, c := range name {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		switch {
		case ok:
			b.WriteRune(c)
			lastUnderscore = c == '_'
		case !lastUnderscore:
			b.WriteByte('_')
			lastUnderscore = true
		}
	}
	return strings.TrimRight(b.String(), "_")
}
