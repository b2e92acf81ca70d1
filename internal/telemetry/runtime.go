package telemetry

import (
	"context"
	"runtime"
	"time"

	"github.com/dydroid/dydroid/internal/metrics"
)

// DefaultSampleInterval is the runtime sampler period.
const DefaultSampleInterval = 5 * time.Second

// StartRuntimeSampler periodically samples the Go runtime into gauges on
// reg — goroutine count, heap occupancy, GC cycles and total GC pause —
// so the daemon's own health shows up next to the fleet aggregates in
// /v1/metricz. It samples once immediately, then every
// interval until ctx is cancelled or the returned stop function runs.
//
// Gauges: runtime.goroutines, runtime.heap_alloc_bytes,
// runtime.heap_objects, runtime.gc_cycles, runtime.gc_pause_total_ns.
func StartRuntimeSampler(ctx context.Context, reg *metrics.Registry, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	ctx, cancel := context.WithCancel(ctx)
	SampleRuntime(reg)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				SampleRuntime(reg)
			}
		}
	}()
	return cancel
}

// SampleRuntime takes one runtime sample into reg's gauges.
func SampleRuntime(reg *metrics.Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.SetGauge("runtime.goroutines", int64(runtime.NumGoroutine()))
	reg.SetGauge("runtime.heap_alloc_bytes", int64(ms.HeapAlloc))
	reg.SetGauge("runtime.heap_objects", int64(ms.HeapObjects))
	reg.SetGauge("runtime.gc_cycles", int64(ms.NumGC))
	reg.SetGauge("runtime.gc_pause_total_ns", int64(ms.PauseTotalNs))
}
