package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the exact nearest-rank order statistic of xs: the smallest
// value with at least q of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usage is a point-in-time reading of process resources.
type usage struct {
	at             time.Time
	cpu            time.Duration // user + system, getrusage
	mallocs        uint64
	gcCPU, busyCPU float64 // runtime/metrics, seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
	}
}

// delta is the resource use between two readings.
type delta struct {
	wall, cpu time.Duration
	mallocs   uint64
	gcShare   float64 // GC CPU ÷ non-idle CPU, per runtime/metrics
}

func since(a usage) delta {
	b := readUsage()
	return delta{
		wall:    b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs,
		gcShare: ratio(b.gcCPU-a.gcCPU, b.busyCPU-a.busyCPU),
	}
}

// heapPeak samples the live heap (as marked by the last GC) until stopped
// and reports the highest value seen, in MiB.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampler, read after done is closed
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// mb stops the sampler and returns the peak in MiB.
func (h *heapPeak) mb() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// numCPU is nproc: the workers and the load generator's goroutines and
// connections are sized to it.
func numCPU() int { return runtime.NumCPU() }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}
