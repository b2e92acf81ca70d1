// Package metrics provides the lightweight instrumentation layer of the
// measurement harness: named counters and duration histograms with cheap
// concurrent updates and point-in-time snapshots. The pipeline records
// per-stage timings (unpack/rewrite/dynamic/static/replay) and status
// counts into a Registry; the experiment runner aggregates one Registry
// per run into its RunStats block. No external dependencies.
//
// The package also holds the two mergeable aggregates every other
// observability layer folds with: Hist, the one bucketed duration
// distribution (the registry's histograms and the fleet snapshot's stage
// latencies), and Ring, the one bounded selection list (recent DCL loads
// and errors, slowest analyses, the ops event journal, the runner's
// slowest traces). Beside them sits LRU, the one bounded
// least-recently-used map (the result store's cache and the trace
// store). metrics imports nothing from the rest of the module, so any
// package may build on them.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// Registry holds named counters, gauges and histograms. All methods are safe for
// concurrent use, and every method is a no-op on a nil receiver so callers
// can thread an optional *Registry without nil checks at each site.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*int64
	gauges   map[string]*int64
	hists    map[string]*histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*int64),
		gauges:   make(map[string]*int64),
		hists:    make(map[string]*histogram),
	}
}

// Add increments the named counter by delta, creating it at zero first.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c, ok := r.counters[name]
	if !ok {
		c = new(int64)
		r.counters[name] = c
	}
	r.mu.Unlock()
	atomic.AddInt64(c, delta)
}

// Counter returns the current value of the named counter (zero when it
// was never incremented). It gives services and tests point reads without
// paying for a full Snapshot.
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c, ok := r.counters[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return atomic.LoadInt64(c)
}

// gauge returns the named gauge cell, creating it at zero first.
func (r *Registry) gauge(name string) *int64 {
	r.mu.Lock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(int64)
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// SetGauge pins the named gauge to v, creating it first. Unlike counters,
// gauges represent instantaneous levels (queue depth, store occupancy,
// goroutine count) and may move in both directions.
func (r *Registry) SetGauge(name string, v int64) {
	if r == nil {
		return
	}
	atomic.StoreInt64(r.gauge(name), v)
}

// AddGauge moves the named gauge by delta (negative deltas allowed),
// creating it at zero first.
func (r *Registry) AddGauge(name string, delta int64) {
	if r == nil {
		return
	}
	atomic.AddInt64(r.gauge(name), delta)
}

// Gauge returns the current value of the named gauge (zero when it was
// never set).
func (r *Registry) Gauge(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	g, ok := r.gauges[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return atomic.LoadInt64(g)
}

// HistSnapshot returns the current summary of the named histogram (the
// zero StageStats when it was never observed). It is the histogram
// counterpart of the Counter point-read: callers inspecting one stage no
// longer pay for a full Snapshot.
func (r *Registry) HistSnapshot(name string) StageStats {
	if r == nil {
		return StageStats{}
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	r.mu.Unlock()
	if !ok {
		return StageStats{}
	}
	return h.stats()
}

// Observe records one duration into the named histogram.
func (r *Registry) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = &histogram{}
		r.hists[name] = h
	}
	r.mu.Unlock()
	h.observe(d)
}

// Time starts a timer for the named histogram and returns the function
// that stops it and records the elapsed duration.
func (r *Registry) Time(name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.Observe(name, time.Since(start)) }
}

// histogram is a registry entry: the shared Hist behind a mutex, so
// concurrent Observe calls on one name serialize on that name only.
type histogram struct {
	mu sync.Mutex
	h  Hist
}

func (h *histogram) observe(d time.Duration) {
	h.mu.Lock()
	h.h.Observe(d)
	h.mu.Unlock()
}

func (h *histogram) stats() StageStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Stats()
}

func (h *histogram) clone() *Hist {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Clone()
}

// StageStats summarizes one histogram at snapshot time.
type StageStats struct {
	Count int64
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// Snapshot is a point-in-time copy of a registry's state.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Stages   map[string]StageStats
}

// Snapshot copies out every counter value, gauge level and histogram
// summary.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
		Stages:   make(map[string]StageStats),
	}
	if r == nil {
		return snap
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
	for name, c := range counters {
		snap.Counters[name] = atomic.LoadInt64(c)
	}
	for name, g := range gauges {
		snap.Gauges[name] = atomic.LoadInt64(g)
	}
	for name, h := range hists {
		snap.Stages[name] = h.stats()
	}
	return snap
}

// String renders the snapshot as an aligned two-section table.
func (s Snapshot) String() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counter\tvalue")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "%s\t%d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		if len(s.Counters) > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "gauge\tvalue")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "%s\t%d\n", name, s.Gauges[name])
		}
	}
	if len(s.Stages) > 0 {
		if len(s.Counters)+len(s.Gauges) > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "stage\tcount\ttotal\tmean\tp50\tp90\tp99\tmax")
		for _, name := range sortedKeys(s.Stages) {
			st := s.Stages[name]
			fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
				name, st.Count, round(st.Total), round(st.Mean),
				round(st.P50), round(st.P90), round(st.P99), round(st.Max))
		}
	}
	w.Flush()
	return b.String()
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(time.Nanosecond)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
