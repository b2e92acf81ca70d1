package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/service"
)

// profiledWorker boots a genuine vetting daemon with a live profile
// recorder and a nanosecond slow deadline, so any real analysis trips
// the watchdog and captures a window.
func profiledWorker(t *testing.T, name string) (*service.Server, *httptest.Server, *profile.Recorder) {
	t.Helper()
	journal := events.NewJournal(0)
	rec := profile.New(profile.Options{
		Node:      name,
		WindowDur: 20 * time.Millisecond,
		Cooldown:  time.Minute,
		Journal:   journal,
		Metrics:   metrics.New(),
	})
	s, err := service.New(service.Config{
		Analyzer:     core.NewAnalyzer(core.Options{Seed: 1}),
		Workers:      1,
		Metrics:      metrics.New(),
		SlowDeadline: time.Nanosecond,
		Journal:      journal,
		Profiles:     rec,
		Node:         name,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts, rec
}

func getProfiles(t *testing.T, base string) ProfilesResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/profiles: %d", resp.StatusCode)
	}
	var pr ProfilesResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestFederatedProfileCapture is the cross-node acceptance path: a scan
// routed through the coordinator trips the worker's slow-analysis
// watchdog, which captures a profile window tagged with the offending
// digest and journals it; the coordinator's federated /v1/profiles
// indexes the window under the member's name and /v1/profiles/{id}
// relays the raw pprof bytes with node provenance.
func TestFederatedProfileCapture(t *testing.T) {
	_, tsA, _ := profiledWorker(t, "workerA")
	_, tsB, _ := profiledWorker(t, "workerB")

	coord, err := New(Config{
		Nodes:         []string{tsA.URL, tsB.URL},
		ProbeInterval: time.Hour,
		Metrics:       metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	apkBytes := tinyAPK(t, "com.fed.profile")
	digests := scanAll(t, cts.URL, [][]byte{apkBytes})
	awaitAll(t, cts.URL, digests)
	digest := digests[0]

	// The watchdog capture runs async; poll the federated index until a
	// watchdog window tagged with the digest appears.
	var meta profile.Meta
	deadline := time.Now().Add(10 * time.Second)
	for {
		pr := getProfiles(t, cts.URL)
		found := false
		for _, m := range pr.Windows {
			if m.Trigger == profile.TriggerWatchdog && m.Digest == digest {
				meta, found = m, true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no watchdog window for %s in federated index: %+v", digest, pr.Windows)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if meta.Node != tsA.URL && meta.Node != tsB.URL {
		t.Fatalf("federated window node = %q, want a configured member name", meta.Node)
	}

	// The journaled capture federates with the member journals.
	evs := fetchClusterEvents(t, cts.URL)
	var captured *events.Event
	for i, e := range evs {
		if e.Type == events.ProfileCaptured && e.Digest == digest {
			captured = &evs[i]
		}
	}
	if captured == nil {
		t.Fatalf("no federated profile-captured event: %+v", evs)
	}
	if !strings.Contains(captured.Detail, meta.ID) {
		t.Fatalf("profile-captured detail = %q, want window %s", captured.Detail, meta.ID)
	}

	// Download through the coordinator, pinned to the holding node: the
	// full window first, then exactly its raw gzipped pprof bytes.
	resp, err := http.Get(cts.URL + "/v1/profiles/" + meta.ID + "?node=" + meta.Node)
	if err != nil {
		t.Fatal(err)
	}
	var win profile.Window
	if err := json.NewDecoder(resp.Body).Decode(&win); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Dydroid-Node"); got != meta.Node {
		t.Fatalf("X-Dydroid-Node = %q, want %q", got, meta.Node)
	}
	if win.Digest != digest || win.Trigger != profile.TriggerWatchdog {
		t.Fatalf("window = trigger=%q digest=%q", win.Trigger, win.Digest)
	}

	resp, err = http.Get(cts.URL + "/v1/profiles/" + meta.ID + "?node=" + meta.Node + "&format=pprof")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof download: %d %s", resp.StatusCode, raw)
	}
	if !bytes.Equal(raw, win.Pprof) || !bytes.HasPrefix(raw, []byte{0x1f, 0x8b}) {
		t.Fatalf("federated pprof bytes (%d, % x...) are not the window's gzipped pprof (%d bytes)",
			len(raw), raw[:min(len(raw), 2)], len(win.Pprof))
	}

	// CI keeps the captured window and its raw pprof bytes as artifacts
	// (it renders the bytes with `go tool pprof`) — the same
	// hook pattern the cluster status and trace tests use.
	if path := os.Getenv("PROFILE_SUMMARY_ARTIFACT"); path != "" {
		raw, err := json.MarshalIndent(win, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write profile summary artifact: %v", err)
		}
	}
	if path := os.Getenv("PROFILE_PPROF_ARTIFACT"); path != "" {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("write profile pprof artifact: %v", err)
		}
	}

	// Unpinned fetch walks the members and still finds the window.
	resp, err = http.Get(cts.URL + "/v1/profiles/" + meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpinned window fetch: %d", resp.StatusCode)
	}

	// Misses answer 404: unknown window everywhere, and an unknown pin.
	for _, path := range []string{"/v1/profiles/w999999", "/v1/profiles/" + meta.ID + "?node=nosuch"} {
		resp, err := http.Get(cts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestCoordinatorMetriczAndPprof: the coordinator exposes its own
// metrics registry and runtime pprof surface, like its workers.
func TestCoordinatorMetriczAndPprof(t *testing.T) {
	n := newStubNode(t)
	_, cts, reg := newTestCoordinator(t, Config{ProbeInterval: time.Hour}, n)
	reg.Add("cluster.scan.requests", 3)

	resp, err := http.Get(cts.URL + "/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "cluster.scan.requests") {
		t.Fatalf("metricz = %d\n%s", resp.StatusCode, body)
	}

	resp, err = http.Get(cts.URL + "/v1/metricz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "dydroid_cluster_scan_requests_total") {
		t.Fatalf("prom metricz missing counter:\n%s", body)
	}

	resp, err = http.Get(cts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index = %d\n%.200s", resp.StatusCode, body)
	}
}

// TestCoordinatorForwardsEscapedPathValues: the coordinator forwards the
// path value it was asked for, escaped, never a decoded "?" that turns
// into a query on the member. An escaped "?format=pprof" in a window ID,
// or a "?" tail on a digest, names no window or verdict and answers 404,
// while the plain reads still answer 200.
func TestCoordinatorForwardsEscapedPathValues(t *testing.T) {
	_, ts, rec := profiledWorker(t, "workerA")
	if w := rec.Capture(profile.TriggerSampler, "", ""); w.ID != "w000001" || len(w.Pprof) == 0 {
		t.Fatalf("capture = %s err=%q", w.ID, w.Err)
	}
	coord, err := New(Config{Nodes: []string{ts.URL}, ProbeInterval: time.Hour, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)
	digests := scanAll(t, cts.URL, [][]byte{tinyAPK(t, "com.escape.path")})
	awaitAll(t, cts.URL, digests)
	digest := digests[0]

	for path, want := range map[string]int{
		"/v1/profiles/w000001":                http.StatusOK,
		"/v1/profiles/w000001%3Fformat=pprof": http.StatusNotFound,
		"/v1/result/" + digest:                http.StatusOK,
		"/v1/result/" + digest + "%3Fx=1":     http.StatusNotFound,
		"/v1/trace/" + digest + "%3Fx=1":      http.StatusNotFound,
	} {
		resp, err := http.Get(cts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}
