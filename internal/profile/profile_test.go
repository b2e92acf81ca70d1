package profile

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
)

// stubRecorder returns a recorder whose profiler hands back the canned
// deterministic profile instantly and whose clock is controllable.
func stubRecorder(t *testing.T, opts Options) (*Recorder, *time.Time) {
	t.Helper()
	r := New(opts)
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	clock := &now
	r.now = func() time.Time { return *clock }
	canned := testProfile(t)
	r.profiler = func(time.Duration) ([]byte, error) { return canned, nil }
	return r, clock
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
	if w.Summary == nil || w.Summary.TopFunc() != "fnC" {
		t.Fatalf("summary = %+v", w.Summary)
	}
	if got := r.Get("w000001"); got != w {
		t.Fatal("Get did not return the stored window")
	}

	// Alert-driven captures journal profile-captured with the digest.
	log := j.Log()
	if len(log.Entries) != 1 || log.Entries[0].Type != events.ProfileCaptured {
		t.Fatalf("journal = %+v", log.Entries)
	}
	if log.Entries[0].Digest != "deadbeef" || !strings.Contains(log.Entries[0].Detail, "w000001") {
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
	r, clock := stubRecorder(t, Options{Cooldown: 10 * time.Second, Metrics: reg})
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
	*clock = clock.Add(11 * time.Second)
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

func TestRenderTopAndDiff(t *testing.T) {
	r, clock := stubRecorder(t, Options{Node: "w1"})
	oldW := r.Capture(TriggerSampler, "", "")
	*clock = clock.Add(time.Minute)
	newW := r.Capture(TriggerWatchdog, "deadbeef", "")
	// Skew the new window so the diff has a regression to show.
	newW.Summary.Top[0].FlatNS *= 3

	var top strings.Builder
	RenderTop(&top, newW, 10)
	for _, want := range []string{"trigger=watchdog", "digest=deadbeef", "fnC", "top functions by flat self-time",
		"cpu by pipeline stage", "interception", "57.1%"} {
		if !strings.Contains(top.String(), want) {
			t.Fatalf("top output missing %q:\n%s", want, top.String())
		}
	}

	var diff strings.Builder
	RenderDiff(&diff, oldW, newW, 10)
	out := diff.String()
	if !strings.Contains(out, "fnC") || !strings.Contains(out, "+200.0%") {
		t.Fatalf("diff output missing regression row:\n%s", out)
	}

	var idx strings.Builder
	RenderIndex(&idx, r.Index())
	if !strings.Contains(idx.String(), "w000002") || !strings.Contains(idx.String(), "watchdog") {
		t.Fatalf("index output:\n%s", idx.String())
	}
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
