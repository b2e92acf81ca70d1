package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/stats"
	"github.com/dydroid/dydroid/internal/telemetry"
)

// FleetResponse is the coordinator's federated GET /v1/fleet body: the
// telemetry.Merge of every reachable node's snapshot, with partial
// coverage made explicit. A node that cannot be fetched mid-merge never
// fails the request and never hides — it is counted and named in
// NodesMissing/Missing so a report over survivors is distinguishable
// from a full-fleet report.
type FleetResponse struct {
	// Nodes is the configured member count (ring membership does not
	// matter here: an ejected node that still answers contributes).
	Nodes int `json:"nodes"`
	// NodesMissing counts members whose snapshot could not be fetched or
	// merged.
	NodesMissing int `json:"nodes_missing"`
	// Missing names them.
	Missing []string `json:"missing,omitempty"`
	// Snapshot is the merged fleet aggregate of the responding nodes.
	// Its Shards field counts the contributing nodes.
	Snapshot *telemetry.Snapshot `json:"snapshot"`
}

// maxFederatedBody bounds one member answer read by a federated view.
const maxFederatedBody = 64 << 20

// fanned is one federated read: the configured member count, the members
// that could not be read (sorted), and the decoded answers of the rest,
// in member-name order.
type fanned[T any] struct {
	nodes   int
	missing []string
	results []fetched[T]
}

// fetched is one member's decoded answer.
type fetched[T any] struct {
	node string
	val  T
}

// fanOut GETs path from every configured member concurrently and decodes
// each JSON answer into a T. A member that cannot be read never fails the
// view: it is named in missing and counted under counter, so a view over
// survivors is distinguishable from a full-fleet one.
func fanOut[T any](ctx context.Context, c *Coordinator, path, counter string) fanned[T] {
	list := c.memberList()
	vals := make([]T, len(list))
	errs := make([]error, len(list))
	var wg sync.WaitGroup
	for i, m := range list {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.getJSON(ctx, m.baseURL, path, &vals[i])
		}()
	}
	wg.Wait()
	out := fanned[T]{nodes: len(list)}
	for i, m := range list {
		if errs[i] != nil {
			out.missing = append(out.missing, m.name)
			c.reg.Add(counter, 1)
			continue
		}
		out.results = append(out.results, fetched[T]{node: m.name, val: vals[i]})
	}
	return out
}

// getJSON GETs base+path and decodes the JSON answer into v; any status
// but 200 is an error.
func (c *Coordinator) getJSON(ctx context.Context, base, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	what := strings.TrimPrefix(path, "/v1/")
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", what, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxFederatedBody)).Decode(v); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// handleFleet serves the federated fleet telemetry.
func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.fleet(r.Context()))
}

// fleet federates the fleet telemetry: every configured node's /v1/fleet
// snapshot is folded with telemetry.Merge — the same associative merge
// the shard property tests prove byte-stable, so a cluster-wide
// MeasurementReport reproduces the single-node report of the same
// corpus. A node whose snapshot does not merge (version skew) is missing
// too.
func (c *Coordinator) fleet(ctx context.Context) FleetResponse {
	f := fanOut[*telemetry.Snapshot](ctx, c, "/v1/fleet", "cluster.fleet.missing")
	merged := telemetry.NewSnapshot(0, 0, 0)
	merged.Shards = 0
	for _, res := range f.results {
		if err := telemetry.Merge(merged, res.val); err != nil {
			f.missing = append(f.missing, res.node)
			c.reg.Add("cluster.fleet.missing", 1)
		}
	}
	sort.Strings(f.missing)
	if len(f.missing) > 0 {
		c.reg.Add("cluster.fleet.partial", 1)
	}
	// The coordinator's own lifecycle events (ejections, failovers) join
	// the members' journals in the federated timeline.
	merged.Events.Merge(c.cfg.Journal.Log())
	return FleetResponse{
		Nodes:        f.nodes,
		NodesMissing: len(f.missing),
		Missing:      f.missing,
		Snapshot:     merged,
	}
}

// handleEvents serves the federated ops timeline as JSONL: the Events log
// of the federated fleet snapshot, which already folds every member's
// journal with the coordinator's own and dedups identical entries.
// Members that could not be read are named, sorted, in
// X-Dydroid-Nodes-Missing — the names /v1/fleet reports.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	fr := c.fleet(r.Context())
	if len(fr.Missing) > 0 {
		w.Header().Set("X-Dydroid-Nodes-Missing", strings.Join(fr.Missing, ","))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	events.EncodeJSONL(w, fr.Snapshot.Events.Entries)
}

// NodeStatus is one worker's row in the cluster status view.
type NodeStatus struct {
	Node    string `json:"node"`
	Healthy bool   `json:"healthy"`
	// Degraded mirrors the node's own queue-saturation healthz signal.
	Degraded bool `json:"degraded,omitempty"`
	Draining bool `json:"draining,omitempty"`
	// Failures is the current consecutive probe/forward failure streak.
	Failures  int    `json:"consecutive_failures,omitempty"`
	LastError string `json:"last_error,omitempty"`
	QueueLen  int    `json:"queue_len"`
	QueueDepth int   `json:"queue_depth"`
	Inflight  int    `json:"inflight"`
	// RingShare is the node's fraction of the hash space (0 while
	// ejected).
	RingShare float64 `json:"ring_share"`
	// SnapshotVersion is the fleet-snapshot format the node reported (0
	// until first contact).
	SnapshotVersion int   `json:"snapshot_version"`
	Ejections       int64 `json:"ejections,omitempty"`
}

// StatusResponse is the GET /v1/cluster/status body.
type StatusResponse struct {
	Nodes     int          `json:"nodes"`
	NodesLive int          `json:"nodes_live"`
	Members   []NodeStatus `json:"members"`
}

// handleStatus serves the coordinator's membership view: per-node
// health, saturation, ring ownership share and snapshot version — the
// body `apkinspect cluster status` renders.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

// Status assembles the current membership view.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	shares := c.ring.Shares()
	st := StatusResponse{Nodes: len(c.members), NodesLive: c.ring.Len()}
	for _, m := range c.members {
		st.Members = append(st.Members, NodeStatus{
			Node:            m.name,
			Healthy:         m.inRing,
			Degraded:        m.degraded,
			Draining:        m.draining,
			Failures:        m.fails,
			LastError:       m.lastErr,
			QueueLen:        m.queueLen,
			QueueDepth:      m.queueDepth,
			Inflight:        m.inflight,
			RingShare:       shares[m.name],
			SnapshotVersion: m.snapshotVersion,
			Ejections:       m.ejections,
		})
	}
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].Node < st.Members[j].Node })
	return st
}

// RenderStatus writes the status view as an aligned table — shared by
// `apkinspect cluster status` and the CI artifact of the multi-process
// equivalence test.
func RenderStatus(w io.Writer, st StatusResponse) {
	fmt.Fprintf(w, "cluster: %d/%d nodes live\n\n", st.NodesLive, st.Nodes)
	t := stats.NewTable("Cluster nodes", "node", "health", "share", "queue", "inflight", "snapver", "fails", "last error")
	for _, m := range st.Members {
		health := "ok"
		switch {
		case !m.Healthy:
			health = "down"
		case m.Draining:
			health = "draining"
		case m.Degraded:
			health = "degraded"
		}
		lastErr := m.LastError
		if lastErr == "" {
			lastErr = "-"
		}
		t.Row(m.Node, health,
			fmt.Sprintf("%.1f%%", m.RingShare*100),
			fmt.Sprintf("%d/%d", m.QueueLen, m.QueueDepth),
			m.Inflight, m.SnapshotVersion, m.Failures, lastErr)
	}
	io.WriteString(w, t.String())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
