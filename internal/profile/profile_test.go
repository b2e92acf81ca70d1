package profile

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
)

// canned stands in for a profiler's gzipped pprof output.
var canned = []byte("\x1f\x8b canned profile")

// stubRecorder returns a recorder whose profiler hands back canned bytes
// instantly, and a function advancing its clock. Triggered captures read
// the clock on their own goroutines, so it is atomic.
func stubRecorder(t *testing.T, opts Options) (*Recorder, func(time.Duration)) {
	t.Helper()
	r := New(opts)
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	var offset atomic.Int64
	r.now = func() time.Time { return base.Add(time.Duration(offset.Load())) }
	r.profiler = func(time.Duration) ([]byte, error) { return canned, nil }
	return r, func(d time.Duration) { offset.Add(int64(d)) }
}

func TestCaptureStoresTaggedWindow(t *testing.T) {
	j := events.NewJournal(16)
	reg := metrics.New()
	r, _ := stubRecorder(t, Options{Node: "w1", Journal: j, Metrics: reg})

	w := r.Capture(TriggerWatchdog, "deadbeef", "deadbeefcafe0000")
	if w.ID != "w000001" || w.Node != "w1" || w.Trigger != TriggerWatchdog {
		t.Fatalf("window identity = %+v", w.Meta())
	}
	if w.Digest != "deadbeef" || w.TraceID != "deadbeefcafe0000" {
		t.Fatalf("window tags = %+v", w.Meta())
	}
	if !bytes.Equal(w.Pprof, canned) || w.Err != "" {
		t.Fatalf("window bytes = %q, err %q", w.Pprof, w.Err)
	}
	if got := r.Get("w000001"); got != w {
		t.Fatal("Get did not return the stored window")
	}

	// Alert-driven captures journal profile-captured with the digest.
	log := j.Log()
	if len(log.Entries) != 1 || log.Entries[0].Type != events.ProfileCaptured {
		t.Fatalf("journal = %+v", log.Entries)
	}
	if log.Entries[0].Digest != "deadbeef" || log.Entries[0].Detail != "trigger=watchdog window=w000001" {
		t.Fatalf("event = %+v", log.Entries[0])
	}
	if reg.Counter("profile.captures") != 1 {
		t.Fatalf("captures counter = %d", reg.Counter("profile.captures"))
	}

	// Sampler cadence windows do not journal.
	r.Capture(TriggerSampler, "", "")
	if j.Len() != 1 {
		t.Fatalf("sampler window journaled: %+v", j.Log().Entries)
	}
}

func TestTriggerCooldown(t *testing.T) {
	reg := metrics.New()
	r, advance := stubRecorder(t, Options{Cooldown: 10 * time.Second, Metrics: reg})
	// Make triggered captures synchronous for the test by draining via Len.
	if !r.TryTrigger(TriggerWatchdog, "d1", "") {
		t.Fatal("first trigger suppressed")
	}
	if r.TryTrigger(TriggerWatchdog, "d2", "") {
		t.Fatal("second trigger inside cooldown not suppressed")
	}
	// A different trigger key has its own cooldown.
	if !r.TryTrigger(TriggerSLOPrefix+"scan-availability", "d3", "") {
		t.Fatal("distinct trigger key suppressed")
	}
	advance(11 * time.Second)
	if !r.TryTrigger(TriggerWatchdog, "d4", "") {
		t.Fatal("trigger after cooldown suppressed")
	}
	waitFor(t, func() bool { return r.Len() == 3 })
	if got := reg.Counter("profile.triggers.suppressed"); got != 1 {
		t.Fatalf("suppressed counter = %d", got)
	}
}

func TestRingEviction(t *testing.T) {
	reg := metrics.New()
	r, _ := stubRecorder(t, Options{Cap: 4, Metrics: reg})
	for i := 0; i < 10; i++ {
		r.Capture(TriggerSampler, "", "")
	}
	if r.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", r.Len())
	}
	idx := r.Index()
	if len(idx) != 4 || idx[0].ID != "w000010" || idx[3].ID != "w000007" {
		t.Fatalf("index = %+v", idx)
	}
	if r.Get("w000001") != nil {
		t.Fatal("evicted window still resolvable")
	}
	if got := reg.Counter("profile.evictions"); got != 6 {
		t.Fatalf("evictions = %d, want 6", got)
	}
	if got := reg.Gauge("profile.windows"); got != 4 {
		t.Fatalf("windows gauge = %d, want 4", got)
	}
}

// TestConcurrentCaptureAndReads hammers capture, eviction and the read
// API from many goroutines — the -race companion to the ring bound.
func TestConcurrentCaptureAndReads(t *testing.T) {
	r, _ := stubRecorder(t, Options{Cap: 8})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r.Capture(TriggerSampler, fmt.Sprintf("d%d-%d", g, i), "")
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, m := range r.Index() {
					if w := r.Get(m.ID); w != nil && w.ID != m.ID {
						t.Error("Get returned a different window")
					}
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Fatalf("ring len = %d, want 8", r.Len())
	}
	if got := len(r.Index()); got != 8 {
		t.Fatalf("index len = %d, want 8", got)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Capture(TriggerSampler, "", "") != nil {
		t.Fatal("nil capture returned a window")
	}
	if r.TryTrigger(TriggerWatchdog, "", "") {
		t.Fatal("nil trigger fired")
	}
	if r.Len() != 0 || r.Index() != nil || r.Get("x") != nil {
		t.Fatal("nil reads not empty")
	}
}

// TestCaptureRealCPUProfile captures live runtime/pprof windows: each
// must hold gzipped pprof bytes, and a busy loop under the pprof label
// stage=busy must be sampled under it, which puts the label's key and
// value in the profile's string table — what `go tool pprof -tags` sums.
// The entries are matched whole (field 6, wire type 2, length, bytes), so
// a function name or path that merely contains "stage" cannot pass.
func TestCaptureRealCPUProfile(t *testing.T) {
	r := New(Options{WindowDur: 80 * time.Millisecond})
	stop := make(chan struct{})
	go pprof.Do(context.Background(), pprof.Labels("stage", "busy"), func(context.Context) {
		x := 0 // keep a core busy so the window has something to sample
		for {
			select {
			case <-stop:
				return
			default:
				x++
			}
		}
	})
	defer close(stop)
	// A loaded host may deliver no sample to the busy goroutine in one
	// window; a few windows make a miss vanishingly unlikely.
	for i := 0; i < 5; i++ {
		w := r.Capture(TriggerSampler, "", "")
		if w.Err != "" {
			t.Fatalf("capture error: %s", w.Err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(w.Pprof))
		if err != nil {
			t.Fatalf("window bytes are not gzipped pprof: %v", err)
		}
		proto, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(proto, []byte("\x32\x05stage")) && bytes.Contains(proto, []byte("\x32\x04busy")) {
			return
		}
	}
	t.Fatal("no sample carried the stage=busy label in 5 windows")
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
