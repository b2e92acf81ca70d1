package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/telemetry"
	"github.com/dydroid/dydroid/internal/trace"
)

// traceCollector aggregates the span trees produced by the run's workers
// into exact per-stage duration distributions plus a bounded list of the
// slowest apps. Safe for concurrent use.
type traceCollector struct {
	mu      sync.Mutex
	durs    map[string][]time.Duration
	slowest metrics.Ring[SlowApp]
}

func newTraceCollector(keep int) *traceCollector {
	return &traceCollector{durs: make(map[string][]time.Duration), slowest: metrics.Ring[SlowApp]{K: keep}}
}

// add folds one app's trace in: every span's duration lands in its
// name's distribution (multiple spans of one name in a tree — e.g. the
// four replays — each count), and the trace competes for a slow slot by
// root duration.
func (c *traceCollector) add(pkg string, t *trace.Trace) {
	if c == nil || t == nil || t.Root == nil {
		return
	}
	total := t.Root.Duration()
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Root.Walk(func(s *trace.Span) {
		c.durs[s.Name] = append(c.durs[s.Name], s.Duration())
	})
	c.slowest.Observe(SlowApp{Package: pkg, Total: total, Trace: t})
}

// stats returns the exact per-stage quantiles and the kept slow traces.
// It sorts copies of the collected distributions: the live slices keep
// their append order, so interleaved add calls and repeated stats calls
// never observe (or build on) a half-sorted prefix.
func (c *traceCollector) stats() (map[string]Quantiles, []SlowApp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Quantiles, len(c.durs))
	for name, durs := range c.durs {
		sorted := append([]time.Duration(nil), durs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		out[name] = Quantiles{
			Count: len(sorted),
			P50:   quantileExact(sorted, 0.50),
			P95:   quantileExact(sorted, 0.95),
			P99:   quantileExact(sorted, 0.99),
		}
	}
	return out, c.slowest.Clone().Entries
}

// quantileScale expresses quantiles as parts-per-million so the
// nearest-rank computation stays in integer arithmetic.
const quantileScale = 1_000_000

// quantileExact is the nearest-rank order statistic over sorted durs:
// rank = ceil(q·n), computed with integer ceiling math so boundary counts
// (q·n exactly integral) rank exactly instead of through a float-epsilon
// ceiling.
func quantileExact(durs []time.Duration, q float64) time.Duration {
	n := int64(len(durs))
	if n == 0 {
		return 0
	}
	ppm := int64(q*quantileScale + 0.5) // exact for quantiles with <= 6 decimals
	rank := (n*ppm + quantileScale - 1) / quantileScale
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return durs[rank-1]
}

// writeTraceDir persists the run's observability artifacts: the kept
// slowest traces as JSONL, the whole RunStats block as JSON, and the
// shard's mergeable fleet snapshot (fleet.json).
func writeTraceDir(dir string, st RunStats, fleet *telemetry.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "traces.jsonl"))
	if err != nil {
		return fmt.Errorf("experiments: trace dir: %w", err)
	}
	for _, s := range st.Slowest {
		if err := trace.EncodeJSONL(f, s.Trace); err != nil {
			f.Close()
			return fmt.Errorf("experiments: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("experiments: trace dir: %w", err)
	}
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "runstats.json"), raw, 0o644); err != nil {
		return fmt.Errorf("experiments: trace dir: %w", err)
	}
	if fleet != nil {
		if err := fleet.WriteFile(filepath.Join(dir, "fleet.json")); err != nil {
			return fmt.Errorf("experiments: trace dir: %w", err)
		}
	}
	return nil
}
