package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/telemetry"
)

// tinyAPK builds a minimal distinct archive per package name.
func tinyAPK(t *testing.T, pkg string) []byte {
	t.Helper()
	b := dex.NewBuilder()
	b.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	data, err := apk.Build(&apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: dexBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// stubNode fakes one worker daemon: scans are "analyzed" instantly and
// the vetting API surface the coordinator touches is served.
type stubNode struct {
	ts *httptest.Server

	mu          sync.Mutex
	scans       map[string]int // digest -> times scanned
	results     map[string][]byte
	fleet       *telemetry.Snapshot
	journal     []events.Event
	degraded    bool
	failHealthz bool
}

func newStubNode(t *testing.T) *stubNode {
	t.Helper()
	n := &stubNode{
		scans:   make(map[string]int),
		results: make(map[string][]byte),
		fleet:   telemetry.NewSnapshot(0, 0, 0),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scan", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		digest, err := apk.SigningDigest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rec := []byte(fmt.Sprintf(`{"digest":%q,"status":"exercised","node":%q}`, digest, n.name()))
		n.mu.Lock()
		n.scans[digest]++
		n.results[digest] = rec
		n.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write(rec)
	})
	mux.HandleFunc("GET /v1/result/{digest}", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		rec, ok := n.results[r.PathValue("digest")]
		n.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"unknown digest"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(rec)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		fail, degraded := n.failHealthz, n.degraded
		n.mu.Unlock()
		if fail {
			http.Error(w, `{"error":"injected probe failure"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "degraded": degraded,
			"queue_len": 0, "queue_depth": 64, "inflight": 0,
		})
	})
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		defer n.mu.Unlock()
		// Like service.fleetSnapshot, the served snapshot folds the live
		// journal into its events log.
		snap := *n.fleet
		snap.Events = n.fleet.Events.Clone()
		for _, e := range n.journal {
			snap.Events.Observe(e)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&snap)
	})
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		evs := append([]events.Event(nil), n.journal...)
		n.mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		events.EncodeJSONL(w, evs)
	})
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"snapshot_version": telemetry.SnapshotVersion})
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

func (n *stubNode) name() string { return n.ts.URL }

func (n *stubNode) scanned(digest string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.scans[digest]
}

func (n *stubNode) setDegraded(v bool) {
	n.mu.Lock()
	n.degraded = v
	n.mu.Unlock()
}

func (n *stubNode) setFailHealthz(v bool) {
	n.mu.Lock()
	n.failHealthz = v
	n.mu.Unlock()
}

// newTestCoordinator assembles a coordinator over the stubs plus its own
// test server.
func newTestCoordinator(t *testing.T, cfg Config, nodes ...*stubNode) (*Coordinator, *httptest.Server, *metrics.Registry) {
	t.Helper()
	for _, n := range nodes {
		cfg.Nodes = append(cfg.Nodes, n.name())
	}
	reg := metrics.New()
	cfg.Metrics = reg
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts, reg
}

// expectedRing rebuilds the placement ring the coordinator uses, so
// tests can compute which stub owns a digest.
func expectedRing(nodes ...*stubNode) *Ring {
	r := NewRing(0)
	for _, n := range nodes {
		r.Add(n.name())
	}
	return r
}

func postScanC(t *testing.T, base string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/scan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestScanRoutesByDigest: with every node healthy, a scan lands on the
// ring owner of its signing digest, exactly once per node, and the
// result proxy serves it back from that node.
func TestScanRoutesByDigest(t *testing.T) {
	a, b, c := newStubNode(t), newStubNode(t), newStubNode(t)
	_, ts, _ := newTestCoordinator(t, Config{ProbeInterval: time.Hour}, a, b, c)
	ring := expectedRing(a, b, c)
	byName := map[string]*stubNode{a.name(): a, b.name(): b, c.name(): c}

	for i := 0; i < 24; i++ {
		data := tinyAPK(t, fmt.Sprintf("com.route.app%d", i))
		digest, err := apk.SigningDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		owner := ring.Owner(digest)
		resp := postScanC(t, ts.URL, data)
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan %d: %d %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Dydroid-Node"); got != owner {
			t.Fatalf("scan %d served by %s, ring owner is %s", i, got, owner)
		}
		if got := byName[owner].scanned(digest); got != 1 {
			t.Fatalf("owner scan count = %d, want 1", got)
		}
		for name, n := range byName {
			if name != owner && n.scanned(digest) != 0 {
				t.Fatalf("non-owner %s also scanned %s", name, digest)
			}
		}

		rr, err := http.Get(ts.URL + "/v1/result/" + digest)
		if err != nil {
			t.Fatal(err)
		}
		rbody, _ := io.ReadAll(rr.Body)
		rr.Body.Close()
		if rr.StatusCode != http.StatusOK || !bytes.Equal(rbody, body) {
			t.Fatalf("result proxy: %d %s, want scan body %s", rr.StatusCode, rbody, body)
		}
		if got := rr.Header.Get("X-Dydroid-Node"); got != owner {
			t.Fatalf("result served by %s, want owner %s", got, owner)
		}
	}

	// An unknown digest 404s after probing the candidate window.
	rr, err := http.Get(ts.URL + "/v1/result/feedfacefeedface")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: %d", rr.StatusCode)
	}
}

// TestScanFailoverEjectsDeadNode: a dead node's scans fail over to the
// next ring position at request level, and K consecutive forward
// failures eject it — no scan is lost.
func TestScanFailoverEjectsDeadNode(t *testing.T) {
	a, b, c := newStubNode(t), newStubNode(t), newStubNode(t)
	coord, ts, reg := newTestCoordinator(t,
		Config{ProbeInterval: time.Hour, ProbeFailures: 2, MaxAttempts: 3}, a, b, c)
	ring := expectedRing(a, b, c)

	// Kill a. Every scan must still land somewhere live.
	a.ts.Close()
	deadOwned := 0
	for i := 0; i < 40; i++ {
		data := tinyAPK(t, fmt.Sprintf("com.failover.app%d", i))
		digest, err := apk.SigningDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(digest) == a.name() {
			deadOwned++
		}
		resp := postScanC(t, ts.URL, data)
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan %d lost: %d %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Dydroid-Node"); got == a.name() {
			t.Fatalf("scan %d served by the dead node", i)
		}

		// The verdict is readable back through the coordinator even though
		// placement moved off the original owner.
		rr, err := http.Get(ts.URL + "/v1/result/" + digest)
		if err != nil {
			t.Fatal(err)
		}
		rr.Body.Close()
		if rr.StatusCode != http.StatusOK {
			t.Fatalf("result %d after failover: %d", i, rr.StatusCode)
		}
	}
	if deadOwned < 2 {
		t.Fatalf("only %d sampled digests owned by the dead node; test is vacuous", deadOwned)
	}

	st := coord.Status()
	var dead *NodeStatus
	for i := range st.Members {
		if st.Members[i].Node == a.name() {
			dead = &st.Members[i]
		}
	}
	if dead == nil || dead.Healthy {
		t.Fatalf("dead node still healthy in status: %+v", st)
	}
	if dead.RingShare != 0 {
		t.Fatalf("ejected node keeps ring share %.3f", dead.RingShare)
	}
	if st.NodesLive != 2 {
		t.Fatalf("nodes_live = %d, want 2", st.NodesLive)
	}
	if got := reg.Counter("cluster.ejected"); got != 1 {
		t.Fatalf("cluster.ejected = %d, want 1", got)
	}
	// Scan and read forwards both count toward K, so at least one scan
	// failed over before the node left the ring.
	if got := reg.Counter("cluster.scan.failover"); got < 1 {
		t.Fatalf("cluster.scan.failover = %d, want >= 1", got)
	}
	if got := reg.Counter("cluster.scan.unroutable"); got != 0 {
		t.Fatalf("cluster.scan.unroutable = %d — scans were lost", got)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func nodeStatus(c *Coordinator, name string) NodeStatus {
	for _, m := range c.Status().Members {
		if m.Node == name {
			return m
		}
	}
	return NodeStatus{}
}

// TestProberEjectsAndRejoins drives the probe lifecycle: K failed probes
// eject a node, the next healthy probe rejoins it and placement follows.
func TestProberEjectsAndRejoins(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	coord, ts, reg := newTestCoordinator(t,
		Config{ProbeInterval: 10 * time.Millisecond, ProbeFailures: 2, MaxAttempts: 2}, a, b)
	ring := expectedRing(a, b)

	// First probe cycle learns the snapshot version.
	waitFor(t, "initial probes", func() bool {
		return nodeStatus(coord, b.name()).SnapshotVersion == telemetry.SnapshotVersion
	})

	b.setFailHealthz(true)
	waitFor(t, "ejection", func() bool { return !nodeStatus(coord, b.name()).Healthy })

	// A digest owned by b routes to a while b is out.
	var data []byte
	for i := 0; ; i++ {
		data = tinyAPK(t, fmt.Sprintf("com.rejoin.app%d", i))
		digest, err := apk.SigningDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(digest) == b.name() {
			break
		}
	}
	resp := postScanC(t, ts.URL, data)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Dydroid-Node") != a.name() {
		t.Fatalf("scan during ejection: %d via %s, want 200 via %s",
			resp.StatusCode, resp.Header.Get("X-Dydroid-Node"), a.name())
	}

	b.setFailHealthz(false)
	waitFor(t, "rejoin", func() bool { return nodeStatus(coord, b.name()).Healthy })
	if got := reg.Counter("cluster.rejoined"); got < 1 {
		t.Fatalf("cluster.rejoined = %d", got)
	}
	if got := reg.Counter("cluster.ejected"); got < 1 {
		t.Fatalf("cluster.ejected = %d", got)
	}
	// Placement returns to the recovered owner.
	resp = postScanC(t, ts.URL, data)
	io.Copy(io.Discard, resp.Body)
	if got := resp.Header.Get("X-Dydroid-Node"); got != b.name() {
		t.Fatalf("post-rejoin scan served by %s, want %s", got, b.name())
	}
}

// TestDegradedNodeDeprioritized: a node reporting queue saturation keeps
// serving but stops being first choice for new scans.
func TestDegradedNodeDeprioritized(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	b.setDegraded(true)
	coord, ts, _ := newTestCoordinator(t,
		Config{ProbeInterval: 10 * time.Millisecond, ProbeFailures: 3, MaxAttempts: 2}, a, b)
	ring := expectedRing(a, b)

	waitFor(t, "degraded probe", func() bool { return nodeStatus(coord, b.name()).Degraded })

	// A digest owned by the degraded node is redirected to the fit one.
	var data []byte
	for i := 0; ; i++ {
		data = tinyAPK(t, fmt.Sprintf("com.degraded.app%d", i))
		digest, err := apk.SigningDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(digest) == b.name() {
			break
		}
	}
	resp := postScanC(t, ts.URL, data)
	io.Copy(io.Discard, resp.Body)
	if got := resp.Header.Get("X-Dydroid-Node"); got != a.name() {
		t.Fatalf("degraded-owned scan served by %s, want fit node %s", got, a.name())
	}
	// The degraded node is still healthy — in the ring, just last choice.
	if st := nodeStatus(coord, b.name()); !st.Healthy {
		t.Fatalf("degraded node was ejected: %+v", st)
	}
}

// TestCoordinatorHealthzAndStatusRender covers the coordinator's own
// liveness view and the shared status table renderer.
func TestCoordinatorHealthzAndStatusRender(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	coord, ts, _ := newTestCoordinator(t, Config{ProbeInterval: time.Hour}, a, b)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h["role"] != "coordinator" || h["status"] != "ok" || h["nodes"] != float64(2) {
		t.Fatalf("coordinator healthz = %v", h)
	}

	resp, err = http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Nodes != 2 || st.NodesLive != 2 || len(st.Members) != 2 {
		t.Fatalf("status = %+v", st)
	}
	var share float64
	for _, m := range st.Members {
		share += m.RingShare
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("ring shares sum to %.4f", share)
	}

	var buf strings.Builder
	RenderStatus(&buf, coord.Status())
	out := buf.String()
	for _, want := range []string{a.name(), b.name(), "Cluster nodes", "2/2 nodes live"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered status missing %q:\n%s", want, out)
		}
	}
}

func TestNewRequiresNodes(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty node list")
	}
	if _, err := New(Config{Nodes: []string{" ", ""}}); err == nil {
		t.Fatal("New accepted a blank node list")
	}
	if _, err := New(Config{Nodes: []string{"x:1", "x:1"}}); err == nil {
		t.Fatal("New accepted a duplicate node")
	}
}
