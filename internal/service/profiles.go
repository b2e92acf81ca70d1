package service

import (
	"fmt"
	"net/http"

	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/telemetry"
)

// handleProfiles serves the profile ring's index, newest first — the
// same rows `apkinspect profile` renders and the coordinator federates
// across members.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	metas := s.cfg.Profiles.Index()
	if metas == nil {
		metas = []profile.Meta{}
	}
	writeJSON(w, http.StatusOK, metas)
}

// handleProfile serves one captured window: the full JSON form by
// default (runtime deltas + base64 pprof bytes), or the raw pprof protobuf
// with ?format=pprof — directly loadable by `go tool pprof`.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	win := s.cfg.Profiles.Get(id)
	if win == nil {
		httpError(w, http.StatusNotFound, "unknown profile window")
		return
	}
	if r.URL.Query().Get("format") == "pprof" {
		if len(win.Pprof) == 0 {
			httpError(w, http.StatusNotFound, "window has no pprof bytes")
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", win.ID+".pb.gz"))
		w.Write(win.Pprof)
		return
	}
	writeJSON(w, http.StatusOK, win)
}

// sloTriggers fires the SLO-alert capture path: every objective whose
// burn-rate alert is firing at now requests a window tagged with the
// analysis that tipped it. The recorder's per-trigger cooldown keeps a
// sustained burn from monopolizing the ring.
func (s *Server) sloTriggers(digest string) {
	if s.cfg.Profiles == nil {
		return
	}
	for _, rep := range s.cfg.Fleet.SLOReports(s.now()) {
		if rep.Alert == telemetry.AlertOK {
			continue
		}
		s.cfg.Profiles.TryTrigger(profile.TriggerSLOPrefix+rep.Name, digest, TraceID(digest))
	}
}
