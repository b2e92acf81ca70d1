package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/trace"
)

// fetchClusterEvents GETs a coordinator's (or worker's) /v1/events JSONL.
func fetchClusterEvents(t *testing.T, base string) []events.Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("events content-type = %q", ct)
	}
	evs, err := events.DecodeJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func findEvent(evs []events.Event, typ events.Type, node string) *events.Event {
	for i := range evs {
		if evs[i].Type == typ && (node == "" || evs[i].Node == node) {
			return &evs[i]
		}
	}
	return nil
}

// apkOwnedBy generates archives until one's signing digest is placed on
// the wanted ring member, returning the archive and its digest.
func apkOwnedBy(t *testing.T, ring *Ring, owner, prefix string) ([]byte, string) {
	t.Helper()
	for i := 0; i < 4096; i++ {
		data := tinyAPK(t, fmt.Sprintf("%s%d", prefix, i))
		digest, err := apk.SigningDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(digest) == owner {
			return data, digest
		}
	}
	t.Fatalf("no generated digest owned by %s", owner)
	return nil, ""
}

// TestScanResponsesNameServingNode is the header-whitelist regression
// test: every proxied scan answer names its actual serving node in
// X-Dydroid-Node — on the direct path and after a request-level
// failover, where the header must name the successor, never the dead
// owner and never be empty.
func TestScanResponsesNameServingNode(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	_, ts, _ := newTestCoordinator(t,
		Config{ProbeInterval: time.Hour, ProbeFailures: 100, MaxAttempts: 2}, a, b)
	ring := expectedRing(a, b)
	byName := map[string]*stubNode{a.name(): a, b.name(): b}

	// Direct path: the header names the ring owner that recorded the scan.
	data, digest := apkOwnedBy(t, ring, a.name(), "com.header.direct")
	resp := postScanC(t, ts.URL, data)
	io.Copy(io.Discard, resp.Body)
	if got := resp.Header.Get("X-Dydroid-Node"); got != a.name() {
		t.Fatalf("direct scan X-Dydroid-Node = %q, want owner %s", got, a.name())
	}
	if a.scanned(digest) != 1 {
		t.Fatal("named node did not perform the scan")
	}

	// Failover path: kill the owner; the relayed answer must name the
	// successor that actually served it.
	victim, survivor := a, b
	data, digest = apkOwnedBy(t, ring, victim.name(), "com.header.failover")
	victim.ts.Close()
	resp = postScanC(t, ts.URL, data)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover scan: %d", resp.StatusCode)
	}
	got := resp.Header.Get("X-Dydroid-Node")
	if got == "" || got == victim.name() {
		t.Fatalf("failover scan X-Dydroid-Node = %q, want the live successor", got)
	}
	if byName[got] != survivor || survivor.scanned(digest) != 1 {
		t.Fatalf("header names %q but survivor scan count = %d", got, survivor.scanned(digest))
	}
}

// TestCoordinatorEventsFederation: GET /v1/events on the coordinator
// merges member journals with its own lifecycle events, and the
// federated /v1/fleet snapshot carries the same timeline. A member that
// stops answering contributes nothing — but its ejection appears in the
// coordinator's own journal, so the outage itself is on the timeline.
func TestCoordinatorEventsFederation(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	a.mu.Lock()
	a.journal = []events.Event{{
		Time: time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC),
		Type: events.SlowAnalysis, Node: a.name(), Digest: "feedface", Detail: "synthetic",
	}}
	a.mu.Unlock()
	coord, ts, _ := newTestCoordinator(t,
		Config{ProbeInterval: 10 * time.Millisecond, ProbeFailures: 2}, a, b)

	// Member journals federate.
	evs := fetchClusterEvents(t, ts.URL)
	if ev := findEvent(evs, events.SlowAnalysis, a.name()); ev == nil || ev.Digest != "feedface" {
		t.Fatalf("member journal missing from federated events: %+v", evs)
	}

	// Eject b: the coordinator's own journal joins the merged timeline.
	b.setFailHealthz(true)
	waitFor(t, "ejection", func() bool { return !nodeStatus(coord, b.name()).Healthy })
	evs = fetchClusterEvents(t, ts.URL)
	if findEvent(evs, events.NodeEjected, b.name()) == nil {
		t.Fatalf("no node-ejected event for %s: %+v", b.name(), evs)
	}
	// Refetching must not duplicate: the merge dedups identical entries.
	again := fetchClusterEvents(t, ts.URL)
	slow := 0
	for _, e := range again {
		if e.Type == events.SlowAnalysis {
			slow++
		}
	}
	if slow != 1 {
		t.Fatalf("slow-analysis duplicated %d times across refetch", slow)
	}

	// Rejoin lands on the timeline too.
	b.setFailHealthz(false)
	waitFor(t, "rejoin", func() bool { return nodeStatus(coord, b.name()).Healthy })
	evs = fetchClusterEvents(t, ts.URL)
	if findEvent(evs, events.NodeRejoined, b.name()) == nil {
		t.Fatalf("no node-rejoined event for %s", b.name())
	}

	// The federated fleet snapshot carries the same events log.
	resp, err := http.Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fr FleetResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if findEvent(fr.Snapshot.Events.Entries, events.NodeEjected, b.name()) == nil {
		t.Fatalf("fleet snapshot events missing node-ejected: %+v", fr.Snapshot.Events.Entries)
	}
}

// TestCoordinatorEventsNamesMissingMember: a member that cannot be read
// is named in X-Dydroid-Nodes-Missing on /v1/events — the same names
// /v1/fleet reports — while the survivors' timeline is still served.
func TestCoordinatorEventsNamesMissingMember(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	a.mu.Lock()
	a.journal = []events.Event{{
		Time: time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC),
		Type: events.DrainStarted, Node: a.name(),
	}}
	a.mu.Unlock()
	_, ts, _ := newTestCoordinator(t, Config{ProbeInterval: time.Hour}, a, b)

	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Dydroid-Nodes-Missing"); got != "" {
		t.Fatalf("healthy fleet names missing members %q", got)
	}

	b.ts.Close()
	resp, err = http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/events with a dead member: %d", resp.StatusCode)
	}
	got := resp.Header.Get("X-Dydroid-Nodes-Missing")
	if got != b.name() {
		t.Fatalf("X-Dydroid-Nodes-Missing = %q, want %q", got, b.name())
	}
	if fr := getFleet(t, ts.URL); strings.Join(fr.Missing, ",") != got {
		t.Fatalf("/v1/fleet missing %v, /v1/events header %q", fr.Missing, got)
	}
	evs, err := events.DecodeJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if findEvent(evs, events.DrainStarted, a.name()) == nil {
		t.Fatalf("survivor journal missing: %+v", evs)
	}
}

// TestStitchedTraceAcrossFailover is the end-to-end tentpole check over
// real HTTP processes: the owner of a digest is killed, the scan fails
// over, and the coordinator's GET /v1/trace/{digest} returns ONE tree —
// the route span with a failed attempt (error recorded), the successor
// attempt, and the surviving worker's full analysis subtree grafted
// under the attempt span whose ID traveled in X-Dydroid-Parent. The
// reroute is visible in the trace and on the ops timeline, not silent.
func TestStitchedTraceAcrossFailover(t *testing.T) {
	queue := 16
	_, ts0 := realWorker(t, core.NewAnalyzer(core.Options{}), queue)
	_, ts1 := realWorker(t, core.NewAnalyzer(core.Options{}), queue)
	ring := NewRing(0)
	ring.Add(ts0.URL)
	ring.Add(ts1.URL)

	coord, err := New(Config{
		Nodes:         []string{ts0.URL, ts1.URL},
		ProbeInterval: time.Hour, // forward failures alone drive this test
		ProbeFailures: 100,       // keep the dead node in the ring: its failed attempt must stay first
		MaxAttempts:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	data, digest := apkOwnedBy(t, ring, ts0.URL, "com.stitch.app")
	ts0.Close()

	resp := postScanC(t, cts.URL, data)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("failover scan: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Dydroid-Node"); got != ts1.URL {
		t.Fatalf("scan served by %q, want survivor %s", got, ts1.URL)
	}
	awaitAll(t, cts.URL, []string{digest})

	// One stitched tree from the coordinator.
	tresp, err := http.Get(cts.URL + "/v1/trace/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	if tresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(tresp.Body)
		tresp.Body.Close()
		t.Fatalf("stitched trace: %d %s", tresp.StatusCode, body)
	}
	if got := tresp.Header.Get("X-Dydroid-Node"); got != ts1.URL {
		t.Fatalf("trace stitched from %q, want %s", got, ts1.URL)
	}
	var tr trace.Trace
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()

	if tr.ID != trace.IDFromDigest(digest) {
		t.Fatalf("trace ID = %q, want digest-derived %q", tr.ID, trace.IDFromDigest(digest))
	}
	if tr.Root.Name != "route" || tr.Root.Attr("digest") != digest {
		t.Fatalf("root = %q digest=%q", tr.Root.Name, tr.Root.Attr("digest"))
	}
	if got := tr.Root.Attr("owner"); got != ts0.URL {
		t.Fatalf("route owner attr = %q, want the original owner %s", got, ts0.URL)
	}

	var attempts []*trace.Span
	tr.Root.Walk(func(sp *trace.Span) {
		if sp.Name == "attempt" {
			attempts = append(attempts, sp)
		}
	})
	if len(attempts) != 2 {
		t.Fatalf("stitched tree has %d attempt spans, want 2", len(attempts))
	}
	failed, won := attempts[0], attempts[1]
	if failed.Attr("node") != ts0.URL || failed.Err == "" {
		t.Fatalf("first attempt node=%q err=%q — the failed attempt must carry its error",
			failed.Attr("node"), failed.Err)
	}
	if won.Attr("node") != ts1.URL || won.Err != "" {
		t.Fatalf("second attempt node=%q err=%q", won.Attr("node"), won.Err)
	}
	if won.Attr("failover.reason") == "" {
		t.Fatal("successor attempt records no failover.reason")
	}
	if won.Attr("status") != "202" && won.Attr("status") != "200" {
		t.Fatalf("successor attempt status = %q", won.Attr("status"))
	}

	// The worker's analysis subtree hangs under the winning attempt span
	// — matched by the span ID that traveled in X-Dydroid-Parent.
	var scan *trace.Span
	for _, ch := range won.Children {
		if ch.Name == "scan" {
			scan = ch
		}
	}
	if scan == nil {
		t.Fatalf("no worker scan subtree grafted under the winning attempt: %+v", won.Children)
	}
	if got := scan.Attr(trace.AttrParentSpan); got != won.ID {
		t.Fatalf("grafted scan parent.span = %q, want attempt ID %q", got, won.ID)
	}
	if got := scan.Attr(trace.AttrParentTrace); got != tr.ID {
		t.Fatalf("grafted scan parent.trace = %q, want %q", got, tr.ID)
	}
	if scan.Find("analyze") == nil {
		t.Fatal("grafted worker subtree has no analyze span")
	}

	// The reroute is journaled: federated /v1/events names the dead node
	// and the digest.
	evs := fetchClusterEvents(t, cts.URL)
	fo := findEvent(evs, events.ScanFailover, ts0.URL)
	if fo == nil || fo.Digest != digest {
		t.Fatalf("no scan-failover event for %s/%s: %+v", ts0.URL, digest, evs)
	}

	// CI keeps the rendered cross-node tree and the timeline as artifacts.
	if path := os.Getenv("CLUSTER_TRACE_ARTIFACT"); path != "" {
		var buf strings.Builder
		trace.Render(&buf, &tr)
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			t.Fatalf("write trace artifact: %v", err)
		}
	}
	if path := os.Getenv("CLUSTER_EVENTS_ARTIFACT"); path != "" {
		var buf strings.Builder
		events.EncodeJSONL(&buf, evs)
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			t.Fatalf("write events artifact: %v", err)
		}
	}
}

// TestCoordinatorTraceWithoutFailover: on the healthy path the stitched
// tree has exactly one attempt and the worker subtree under it — and a
// worker-direct trace read through the coordinator still works when the
// coordinator itself never routed the scan (no route trace stored).
func TestCoordinatorTraceWithoutFailover(t *testing.T) {
	_, wts := realWorker(t, core.NewAnalyzer(core.Options{}), 16)
	coord, err := New(Config{Nodes: []string{wts.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	data := tinyAPK(t, "com.stitch.healthy")
	digest, err := apk.SigningDigest(data)
	if err != nil {
		t.Fatal(err)
	}

	// Scan submitted directly to the worker: the coordinator has no route
	// trace, so /v1/trace relays the worker tree unstitched.
	direct := scanAll(t, wts.URL, [][]byte{data})
	awaitAll(t, wts.URL, direct)
	tresp, err := http.Get(cts.URL + "/v1/trace/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	var unstitched trace.Trace
	if err := json.NewDecoder(tresp.Body).Decode(&unstitched); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if unstitched.Root.Name != "scan" {
		t.Fatalf("worker-direct trace root = %q, want scan", unstitched.Root.Name)
	}

	// Scan routed through the coordinator: one attempt, worker tree
	// grafted under it.
	data2 := tinyAPK(t, "com.stitch.routed")
	digest2, err := apk.SigningDigest(data2)
	if err != nil {
		t.Fatal(err)
	}
	routed := scanAll(t, cts.URL, [][]byte{data2})
	if routed[0] != digest2 {
		t.Fatalf("digest mismatch: %s vs %s", routed[0], digest2)
	}
	awaitAll(t, cts.URL, routed)
	tresp, err = http.Get(cts.URL + "/v1/trace/" + digest2)
	if err != nil {
		t.Fatal(err)
	}
	var tr trace.Trace
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tr.Root.Name != "route" {
		t.Fatalf("routed trace root = %q, want route", tr.Root.Name)
	}
	var attempts int
	var scan *trace.Span
	tr.Root.Walk(func(sp *trace.Span) {
		switch sp.Name {
		case "attempt":
			attempts++
			if sp.Err != "" {
				t.Fatalf("healthy attempt carries error %q", sp.Err)
			}
		case "scan":
			scan = sp
		}
	})
	if attempts != 1 || scan == nil {
		t.Fatalf("healthy stitched tree: %d attempts, scan subtree present=%v", attempts, scan != nil)
	}
	if scan.Find("analyze") == nil {
		t.Fatal("grafted subtree lost the analyze span")
	}
}
