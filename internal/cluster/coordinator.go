package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/trace"
)

// Config assembles a Coordinator.
type Config struct {
	// Nodes is the explicit-join member list: worker addresses
	// ("host:port" or full base URLs). At least one is required.
	Nodes []string
	// VNodes is the virtual-node count per member (default DefaultVNodes).
	VNodes int
	// ProbeInterval is the health-probe period (default 2s).
	ProbeInterval time.Duration
	// ProbeFailures is K: a node is ejected from the ring after K
	// consecutive failed probes or forwards, and rejoins on the next
	// successful probe (default 3).
	ProbeFailures int
	// MaxAttempts bounds the per-request failover chain: a scan or read
	// touches at most this many distinct nodes in ring order before the
	// coordinator answers 502 (default 3).
	MaxAttempts int
	// MaxBodyBytes bounds one forwarded submission (default 64 MiB).
	MaxBodyBytes int64
	// Client performs node requests (default: 30s-timeout client).
	Client *http.Client
	// Metrics receives coordinator counters. Optional.
	Metrics *metrics.Registry
	// Traces stores the coordinator's per-scan route span trees, keyed by
	// digest; GET /v1/trace/{digest} grafts the worker's analysis tree
	// under the matching attempt span. Nil gets a default in-memory store.
	Traces *trace.Store
	// Journal records cluster lifecycle events (eject/rejoin/failover),
	// federated with member journals at GET /v1/events. Nil gets a fresh
	// default journal.
	Journal *events.Journal
	// Profiles, when non-nil, is the coordinator's own continuous-
	// profiling recorder: its windows join the federated /v1/profiles
	// index under Node's name next to the member windows. Optional.
	Profiles *profile.Recorder
	// Node names the coordinator itself in federated profile rows and
	// journal events (default "coordinator").
	Node string
	// Logger receives membership transitions (eject/rejoin). Optional.
	Logger *slog.Logger
}

// member is the coordinator's view of one worker.
type member struct {
	name    string // as configured, the ring label
	baseURL string

	inRing   bool
	fails    int // consecutive probe/forward failures
	lastErr  string
	degraded bool
	draining bool
	queueLen, queueDepth, inflight int
	snapshotVersion                int
	ejections                      int64
}

// Coordinator routes the vetting API across the worker ring. Create with
// New, mount Handler, and call Close to stop the prober.
type Coordinator struct {
	cfg    Config
	reg    *metrics.Registry
	client *http.Client

	mu      sync.Mutex
	ring    *Ring
	members map[string]*member

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New validates the config, joins every configured node, and starts the
// health prober.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: Config.Nodes requires at least one worker")
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeFailures <= 0 {
		cfg.ProbeFailures = 3
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Traces == nil {
		st, err := trace.OpenStore(trace.StoreOptions{Metrics: cfg.Metrics})
		if err != nil {
			return nil, fmt.Errorf("cluster: route trace store: %w", err)
		}
		cfg.Traces = st
	}
	if cfg.Journal == nil {
		cfg.Journal = events.NewJournal(0)
	}
	if cfg.Node == "" {
		cfg.Node = "coordinator"
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     cfg.Metrics,
		client:  cfg.Client,
		ring:    NewRing(cfg.VNodes),
		members: make(map[string]*member, len(cfg.Nodes)),
		done:    make(chan struct{}),
	}
	for _, n := range cfg.Nodes {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, dup := c.members[n]; dup {
			return nil, fmt.Errorf("cluster: node %q configured twice", n)
		}
		c.members[n] = &member{name: n, baseURL: baseURL(n), inRing: true}
		c.ring.Add(n)
	}
	if len(c.members) == 0 {
		return nil, errors.New("cluster: Config.Nodes requires at least one worker")
	}
	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

// memberList snapshots the configured members in name order.
func (c *Coordinator) memberList() []*member {
	c.mu.Lock()
	list := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		list = append(list, m)
	}
	c.mu.Unlock()
	slices.SortFunc(list, func(a, b *member) int { return strings.Compare(a.name, b.name) })
	return list
}

// baseURL normalizes a configured node address to a URL base.
func baseURL(node string) string {
	if strings.Contains(node, "://") {
		return strings.TrimRight(node, "/")
	}
	return "http://" + node
}

// Close stops the prober. In-flight proxied requests finish on their own.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.done) })
	c.wg.Wait()
}

// Handler returns the coordinator's HTTP routes — the same vetting API
// surface the workers serve, plus the cluster status view.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scan", c.handleScan)
	mux.HandleFunc("GET /v1/result/{digest}", c.handleResult)
	mux.HandleFunc("GET /v1/trace/{digest}", c.handleTrace)
	mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	mux.HandleFunc("GET /v1/events", c.handleEvents)
	mux.HandleFunc("GET /v1/healthz", c.handleHealthz)
	mux.HandleFunc("GET /v1/cluster/status", c.handleStatus)
	mux.HandleFunc("GET /v1/profiles", c.handleProfiles)
	mux.HandleFunc("GET /v1/profiles/{id}", c.handleProfile)
	mux.HandleFunc("GET /v1/metricz", c.handleMetricz)
	// The coordinator profiles itself the same way its workers do.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// candidates returns the bounded failover chain for a digest: up to
// MaxAttempts distinct live nodes in ring order from the owner, with
// degraded and draining nodes deprioritized (stable) so a saturated
// worker stops receiving new scans before it starts answering 429.
func (c *Coordinator) candidates(digest string) []*member {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := c.ring.Successors(digest, c.cfg.MaxAttempts)
	var fit, strained []*member
	for _, n := range names {
		m := c.members[n]
		if m == nil {
			continue
		}
		if m.degraded || m.draining {
			strained = append(strained, m)
		} else {
			fit = append(fit, m)
		}
	}
	return append(fit, strained...)
}

// noteForward records a forward outcome against the ejection counter: a
// transport failure counts like a failed probe (K of them in a row eject
// the node), a success resets the streak.
func (c *Coordinator) noteForward(m *member, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil {
		m.fails = 0
		return
	}
	m.fails++
	m.lastErr = err.Error()
	if m.inRing && m.fails >= c.cfg.ProbeFailures {
		c.ejectLocked(m, "forward failures")
	}
}

// ejectLocked removes m from the ring (the caller holds c.mu).
func (c *Coordinator) ejectLocked(m *member, why string) {
	m.inRing = false
	m.ejections++
	// The node may come back as a different binary; re-learn its snapshot
	// format on recovery.
	m.snapshotVersion = 0
	c.ring.Remove(m.name)
	c.reg.Add("cluster.ejected", 1)
	c.reg.SetGauge("cluster.nodes.live", int64(c.ring.Len()))
	c.cfg.Journal.Record(events.Event{
		Type: events.NodeEjected, Node: m.name,
		Detail: fmt.Sprintf("%s after %d failures: %s", why, m.fails, m.lastErr),
	})
	if c.cfg.Logger != nil {
		c.cfg.Logger.Warn("node ejected from ring", "node", m.name, "reason", why, "failures", m.fails, "last_error", m.lastErr)
	}
}

// rejoinLocked returns m to the ring (the caller holds c.mu).
func (c *Coordinator) rejoinLocked(m *member) {
	m.inRing = true
	m.fails = 0
	m.lastErr = ""
	c.ring.Add(m.name)
	c.reg.Add("cluster.rejoined", 1)
	c.reg.SetGauge("cluster.nodes.live", int64(c.ring.Len()))
	c.cfg.Journal.Record(events.Event{Type: events.NodeRejoined, Node: m.name})
	if c.cfg.Logger != nil {
		c.cfg.Logger.Info("node rejoined ring", "node", m.name)
	}
}

// handleScan reads the submission, routes it by signing digest, and
// relays the owning node's answer. A node that cannot be reached fails
// the request over to the next ring position; the chain is bounded by
// MaxAttempts. Non-transport answers (including 429 backpressure) are
// relayed as-is — placement is by digest, so a saturated owner must not
// leak its scans to a node that will never serve their results.
//
// Every routed scan opens a root "route" span with one "attempt" child
// per touched node; the winning attempt's span ID travels to the worker
// in the X-Dydroid-Parent header, so GET /v1/trace/{digest} can graft
// the worker's analysis tree under that exact span. A transport failure
// closes its attempt span with the error and journals a scan-failover
// event — the reroute is visible, never silent.
func (c *Coordinator) handleScan(w http.ResponseWriter, r *http.Request) {
	c.reg.Add("cluster.scan.requests", 1)
	body, err := io.ReadAll(io.LimitReader(r.Body, c.cfg.MaxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	if int64(len(body)) > c.cfg.MaxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "submission exceeds size limit")
		return
	}
	digest, err := apk.SigningDigest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt := trace.New("route", trace.WithID(trace.IDFromDigest(digest)), trace.WithDigest(digest))
	rt.Root.SetAttr("digest", digest)
	defer func() {
		rt.Root.End()
		if perr := c.cfg.Traces.Put(rt); perr != nil {
			c.reg.Add("cluster.trace.errors", 1)
		}
	}()
	cands := c.candidates(digest)
	if len(cands) > 0 {
		rt.Root.SetAttr("owner", cands[0].name)
	}
	var lastErr error
	for i, m := range cands {
		sp := rt.Root.StartChild("attempt")
		sp.ID = trace.NewID()
		sp.SetAttr("node", m.name)
		sp.SetAttr("attempt", strconv.Itoa(i+1))
		if lastErr != nil {
			sp.SetAttr("failover.reason", lastErr.Error())
		}
		req, rerr := http.NewRequestWithContext(r.Context(), http.MethodPost, m.baseURL+"/v1/scan", bytes.NewReader(body))
		if rerr != nil {
			sp.EndErr(rerr)
			httpError(w, http.StatusInternalServerError, rerr.Error())
			return
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(headerParent, trace.ParentRef(rt.ID, sp.ID))
		resp, err := c.client.Do(req)
		if err != nil {
			sp.EndErr(err)
			lastErr = err
			c.noteForward(m, err)
			c.reg.Add("cluster.scan.failover", 1)
			c.cfg.Journal.Record(events.Event{
				Type: events.ScanFailover, Node: m.name, Digest: digest,
				Detail: err.Error(),
			})
			continue
		}
		sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
		sp.End()
		c.noteForward(m, nil)
		if i > 0 {
			c.reg.Add("cluster.scan.rerouted", 1)
		}
		c.reg.Add("cluster.scan.forwarded", 1)
		relay(w, resp, m.name)
		return
	}
	c.reg.Add("cluster.scan.unroutable", 1)
	if lastErr != nil {
		rt.Root.EndErr(lastErr)
		httpError(w, http.StatusBadGateway, "no reachable node for digest: "+lastErr.Error())
		return
	}
	rt.Root.EndErr(errors.New("no live nodes in ring"))
	httpError(w, http.StatusServiceUnavailable, "no live nodes in ring")
}

// headerParent mirrors service.HeaderParent without importing the
// service package (the coordinator speaks only HTTP to its workers).
const headerParent = "X-Dydroid-Parent"

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	c.proxyRead(w, r.PathValue("digest"), "/v1/result/")
}

// handleTrace serves the stitched cross-node span tree of a digest: the
// coordinator's own route trace with the worker's analysis tree grafted
// under the attempt span that carried the scan (matched by the span ID
// the X-Dydroid-Parent header named). With no local route trace — e.g.
// the scan reached the worker directly — the worker's tree is relayed
// unstitched; with no reachable worker trace the route tree alone is
// served, so a dead node's routing history stays inspectable.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	route, routeErr := c.cfg.Traces.Get(digest)
	remote, node := c.fetchWorkerTrace(digest)
	switch {
	case routeErr != nil && remote == nil:
		// Neither side knows the digest: fall back to the plain proxy so
		// error semantics (404 vs 502) match the other read endpoints.
		c.proxyRead(w, digest, "/v1/trace/")
		return
	case routeErr != nil:
		w.Header().Set("X-Dydroid-Node", node)
		writeJSON(w, http.StatusOK, remote)
		return
	}
	if remote != nil {
		trace.Graft(route, remote)
		w.Header().Set("X-Dydroid-Node", node)
	}
	writeJSON(w, http.StatusOK, route)
}

// fetchWorkerTrace pulls the first available worker span tree for a
// digest from the candidate window, returning it with the serving node's
// name ("" when no node has one).
func (c *Coordinator) fetchWorkerTrace(digest string) (*trace.Trace, string) {
	for _, m := range c.candidates(digest) {
		resp, err := c.client.Get(m.baseURL + "/v1/trace/" + url.PathEscape(digest))
		if err != nil {
			c.noteForward(m, err)
			continue
		}
		c.noteForward(m, nil)
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		var tr trace.Trace
		err = json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&tr)
		resp.Body.Close()
		if err != nil || tr.Root == nil {
			continue
		}
		return &tr, m.name
	}
	return nil, ""
}

// proxyRead fetches a digest-keyed read from its owning node. The same
// bounded candidate window a scan used is probed in order, so a verdict
// that failed over to a successor during a node death is still found:
// a 404 from one node moves on to the next, any other answer is relayed.
func (c *Coordinator) proxyRead(w http.ResponseWriter, digest, path string) {
	var lastErr error
	sawMiss := false
	for _, m := range c.candidates(digest) {
		resp, err := c.client.Get(m.baseURL + path + url.PathEscape(digest))
		if err != nil {
			lastErr = err
			c.noteForward(m, err)
			continue
		}
		c.noteForward(m, nil)
		if resp.StatusCode == http.StatusNotFound {
			sawMiss = true
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		relay(w, resp, m.name)
		return
	}
	switch {
	case sawMiss:
		httpError(w, http.StatusNotFound, "unknown digest")
	case lastErr != nil:
		httpError(w, http.StatusBadGateway, "no reachable node for digest: "+lastErr.Error())
	default:
		httpError(w, http.StatusServiceUnavailable, "no live nodes in ring")
	}
}

// relay copies a node response to the client, naming the serving node.
func relay(w http.ResponseWriter, resp *http.Response, node string) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Content-Disposition", "Retry-After", "X-Dydroid-Trace"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Dydroid-Node", node)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleHealthz is the coordinator's own liveness view.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	live := c.ring.Len()
	total := len(c.members)
	c.mu.Unlock()
	status := "ok"
	if live == 0 {
		status = "no-live-nodes"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"role":       "coordinator",
		"nodes":      total,
		"nodes_live": live,
	})
}
