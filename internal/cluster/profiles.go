package cluster

import (
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"

	"github.com/dydroid/dydroid/internal/profile"
)

// ProfilesResponse is the coordinator's federated GET /v1/profiles body:
// every reachable member's profile-window index merged newest first,
// each row tagged with the member that holds it. Like the federated
// fleet view, an unreachable node is counted and named instead of
// failing the request.
type ProfilesResponse struct {
	Nodes        int            `json:"nodes"`
	NodesMissing int            `json:"nodes_missing"`
	Missing      []string       `json:"missing,omitempty"`
	Windows      []profile.Meta `json:"windows"`
}

// handleProfiles federates the profile-window index: every configured
// member's /v1/profiles is fetched concurrently, each row is stamped
// with the member's configured name (the address a follow-up
// /v1/profiles/{id}?node= pin uses), and the union is served newest
// first.
func (c *Coordinator) handleProfiles(w http.ResponseWriter, r *http.Request) {
	f := fanOut[[]profile.Meta](r.Context(), c, "/v1/profiles", "cluster.profiles.missing")
	windows := []profile.Meta{}
	// The coordinator's own windows join the index under its own name.
	for _, meta := range c.cfg.Profiles.Index() {
		meta.Node = c.cfg.Node
		windows = append(windows, meta)
	}
	for _, res := range f.results {
		for _, meta := range res.val {
			meta.Node = res.node
			windows = append(windows, meta)
		}
	}
	sort.Slice(windows, func(i, j int) bool {
		if !windows[i].StartAt.Equal(windows[j].StartAt) {
			return windows[i].StartAt.After(windows[j].StartAt)
		}
		if windows[i].Node != windows[j].Node {
			return windows[i].Node < windows[j].Node
		}
		return windows[i].ID > windows[j].ID
	})
	writeJSON(w, http.StatusOK, ProfilesResponse{
		Nodes:        f.nodes,
		NodesMissing: len(f.missing),
		Missing:      f.missing,
		Windows:      windows,
	})
}

// handleProfile fetches one captured window from the fleet. Window IDs
// are per-recorder sequences, so the same ID can exist on several
// members: ?node= pins the member (the federated index names it), and
// without a pin the members are walked in name order and the first
// holder answers. The serving member travels in X-Dydroid-Node, and
// ?format=pprof passes through to the worker untouched.
func (c *Coordinator) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	pin := r.URL.Query().Get("node")

	// The coordinator's own ring answers first (or exclusively, when the
	// pin names the coordinator).
	if pin == "" || pin == c.cfg.Node {
		if win := c.cfg.Profiles.Get(id); win != nil {
			w.Header().Set("X-Dydroid-Node", c.cfg.Node)
			if r.URL.Query().Get("format") == "pprof" {
				if len(win.Pprof) == 0 {
					httpError(w, http.StatusNotFound, "window has no pprof bytes")
					return
				}
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Write(win.Pprof)
				return
			}
			writeJSON(w, http.StatusOK, win)
			return
		}
		if pin == c.cfg.Node {
			httpError(w, http.StatusNotFound, "unknown profile window")
			return
		}
	}

	list := c.memberList()
	if pin != "" {
		list = slices.DeleteFunc(list, func(m *member) bool { return m.name != pin })
	}
	if len(list) == 0 {
		httpError(w, http.StatusNotFound, "unknown node: "+pin)
		return
	}

	path := "/v1/profiles/" + url.PathEscape(id)
	if f := r.URL.Query().Get("format"); f != "" {
		path += "?" + url.Values{"format": {f}}.Encode()
	}
	var lastErr error
	sawMiss := false
	for _, m := range list {
		resp, err := c.client.Get(m.baseURL + path)
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
		httpError(w, http.StatusNotFound, "unknown profile window")
	case lastErr != nil:
		httpError(w, http.StatusBadGateway, "no reachable node for window: "+lastErr.Error())
	default:
		httpError(w, http.StatusServiceUnavailable, "no live nodes")
	}
}

// handleMetricz serves the coordinator's own metrics registry — the
// routing, federation and membership counters — as text, or as a
// Prometheus exposition with ?format=prom.
func (c *Coordinator) handleMetricz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, c.reg.Snapshot().String())
}
