package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/trace"
)

// newProfiledServer builds a stub server with a live profile recorder
// (short real CPU windows) sharing the server's journal and registry.
func newProfiledServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *profile.Recorder) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Journal == nil {
		cfg.Journal = events.NewJournal(0)
	}
	rec := profile.New(profile.Options{
		Node:      cfg.Node,
		WindowDur: 20 * time.Millisecond,
		Cooldown:  time.Minute,
		Journal:   cfg.Journal,
		Metrics:   cfg.Metrics,
	})
	cfg.Profiles = rec
	s, ts := newStubServer(t, cfg, nil)
	return s, ts, rec
}

// waitWindows polls until the recorder holds at least n windows.
func waitWindows(t *testing.T, rec *profile.Recorder, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rec.Len() >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("recorder never reached %d windows (have %d)", n, rec.Len())
}

// TestWatchdogTriggersProfileCapture is the alert-capture acceptance
// path: an analysis blowing past the slow deadline (injectable clock, so
// no real waiting) automatically captures a profile window tagged with
// the offending digest, journals a profile-captured event, and the
// window is downloadable from /v1/profiles/{id} — including the raw
// gzipped pprof bytes that `go tool pprof` reads.
func TestWatchdogTriggersProfileCapture(t *testing.T) {
	s, ts, rec := newProfiledServer(t, Config{
		Workers:      1,
		SlowDeadline: time.Hour,
		Node:         "w1",
	})

	// Fake clock: two hours elapse between arm and disarm while the real
	// timer never fires, so the disarm path decides slowness.
	base := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	var calls atomic.Int64
	s.now = func() time.Time {
		if calls.Add(1) == 1 {
			return base
		}
		return base.Add(2 * time.Hour)
	}

	tr := trace.New("scan", trace.WithDigest("feedface"))
	disarm := s.armWatchdog("feedface")
	tr.Root.End()
	disarm(tr)

	waitWindows(t, rec, 1)
	metas := rec.Index()
	if metas[0].Trigger != profile.TriggerWatchdog || metas[0].Digest != "feedface" {
		t.Fatalf("captured window meta = %+v, want watchdog/feedface", metas[0])
	}
	if metas[0].TraceID != TraceID("feedface") {
		t.Fatalf("window trace ID = %q, want %q", metas[0].TraceID, TraceID("feedface"))
	}

	evs := fetchEvents(t, ts.URL)
	var captured *events.Event
	for i, e := range evs {
		if e.Type == events.ProfileCaptured {
			captured = &evs[i]
		}
	}
	if captured == nil {
		t.Fatalf("no profile-captured journal event: %+v", evs)
	}
	if captured.Digest != "feedface" || !strings.Contains(captured.Detail, metas[0].ID) {
		t.Fatalf("profile-captured event = %+v, want digest feedface and window %s", captured, metas[0].ID)
	}

	// The index endpoint lists it; the window endpoint serves the full
	// form; ?format=pprof serves exactly its gzipped pprof bytes.
	resp, err := http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var idx []profile.Meta
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(idx) != 1 || idx[0].ID != metas[0].ID {
		t.Fatalf("/v1/profiles = %+v", idx)
	}

	resp, err = http.Get(ts.URL + "/v1/profiles/" + idx[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var win profile.Window
	if err := json.NewDecoder(resp.Body).Decode(&win); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if win.Trigger != profile.TriggerWatchdog || win.Digest != "feedface" || len(win.Pprof) == 0 {
		t.Fatalf("window = trigger=%q digest=%q pprof=%d bytes", win.Trigger, win.Digest, len(win.Pprof))
	}

	resp, err = http.Get(ts.URL + "/v1/profiles/" + idx[0].ID + "?format=pprof")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("pprof content-type = %q", ct)
	}
	if !bytes.Equal(raw, win.Pprof) || !bytes.HasPrefix(raw, []byte{0x1f, 0x8b}) {
		t.Fatalf("served pprof bytes (%d, % x...) are not the window's gzipped pprof (%d bytes)",
			len(raw), raw[:min(len(raw), 2)], len(win.Pprof))
	}

	if resp, _ := http.Get(ts.URL + "/v1/profiles/nosuch"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown window = %d, want 404", resp.StatusCode)
	}
}

// TestSLOBurnTriggersProfileCapture: enough failed analyses to blow the
// availability fast-burn threshold make the post-analysis check capture
// a window whose trigger names the burning objective.
func TestSLOBurnTriggersProfileCapture(t *testing.T) {
	s, _, rec := newProfiledServer(t, Config{Workers: 1, Node: "w1"})

	for i := 0; i < 5; i++ {
		tr := trace.New("scan", trace.WithDigest("feedface"))
		tr.Root.End()
		s.cfg.Fleet.ObserveError("com.burn.app", errors.New("synthetic failure"), tr)
	}
	s.sloTriggers("feedface")

	waitWindows(t, rec, 1)
	meta := rec.Index()[0]
	if meta.Trigger != profile.TriggerSLOPrefix+"scan-availability" {
		t.Fatalf("trigger = %q, want slo:scan-availability", meta.Trigger)
	}
	if meta.Digest != "feedface" {
		t.Fatalf("digest = %q, want the analysis that tipped the burn", meta.Digest)
	}

	// The cooldown suppresses an immediate second capture for the same
	// objective.
	if s.sloTriggers("feedface"); rec.Len() != 1 {
		// A second window may still be in flight only if TryTrigger
		// started one — assert via the suppression counter instead.
		t.Fatalf("cooldown did not suppress the repeat trigger")
	}
}
