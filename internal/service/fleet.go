package service

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/telemetry"
	"github.com/dydroid/dydroid/internal/trace"
)

// handleFleet serves the current fleet aggregate as a versioned JSON
// snapshot — the same shape `experiments` writes per shard and
// `apkinspect fleet merge` combines. The ops journal rides along in the
// snapshot's events field, so a coordinator federating member snapshots
// federates their timelines with the same merge.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fleetSnapshot())
}

// fleetSnapshot is the served aggregate: the fleet snapshot with the
// live ops journal folded into its events log.
func (s *Server) fleetSnapshot() *telemetry.Snapshot {
	snap := s.cfg.Fleet.Snapshot()
	snap.Events.Merge(s.cfg.Journal.Log())
	return snap
}

// handleEvents serves the ops journal as JSONL, newest first — the
// format the coordinator federates and the cluster tests archive as an
// artifact.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	events.EncodeJSONL(w, s.cfg.Journal.Log().Entries)
}

// writeSLOProm appends the SLO burn-rate gauges to a Prometheus
// exposition. The registry only carries int64 counters and gauges, so
// the float-valued SLO lines are rendered here from the live reports.
func (s *Server) writeSLOProm(w io.Writer) {
	reports := s.cfg.Fleet.Snapshot().SLO.Reports(s.now())
	if len(reports) == 0 {
		return
	}
	for _, name := range []string{
		"dydroid_slo_burn_rate_fast", "dydroid_slo_burn_rate_slow",
		"dydroid_slo_error_budget_used", "dydroid_slo_alert_firing",
	} {
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		for _, r := range reports {
			var v float64
			switch name {
			case "dydroid_slo_burn_rate_fast":
				v = r.Fast.BurnRate
			case "dydroid_slo_burn_rate_slow":
				v = r.Slow.BurnRate
			case "dydroid_slo_error_budget_used":
				v = r.BudgetUsed
			case "dydroid_slo_alert_firing":
				if r.Alert != telemetry.AlertOK {
					v = 1
				}
			}
			fmt.Fprintf(w, "%s{objective=%q} %g\n", name, r.Name, v)
		}
	}
}

// versionResponse is the body of GET /v1/version: build identity plus the
// on-the-wire format versions a client needs for compatibility checks.
type versionResponse struct {
	Version     string `json:"version"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	// RecordVersion is the stored-verdict format (resultstore compat).
	RecordVersion int `json:"record_version"`
	// SnapshotVersion is the fleet snapshot format (merge compat).
	SnapshotVersion int `json:"snapshot_version"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, versionInfo())
}

// versionInfo reads the build identity stamped into the binary. Without
// build info (unusual outside tests) the format versions still answer.
func versionInfo() versionResponse {
	v := versionResponse{
		Version:         "devel",
		RecordVersion:   RecordVersion,
		SnapshotVersion: telemetry.SnapshotVersion,
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.GoVersion = bi.GoVersion
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		v.Version = bi.Main.Version
	}
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision":
			v.VCSRevision = st.Value
		case "vcs.time":
			v.VCSTime = st.Value
		}
	}
	return v
}

// armWatchdog starts the slow-analysis watchdog for one submission. If
// the analysis outlives Config.SlowDeadline a warning is logged while the
// run is still in flight (digest only — the live span tree is being
// mutated by the worker, so rendering waits); the returned disarm func,
// called with the closed trace, then logs the full rendered span tree so
// the operator sees where the time went. With a zero deadline both sides
// are no-ops.
func (s *Server) armWatchdog(digest string) func(*trace.Trace) {
	if s.cfg.SlowDeadline <= 0 {
		return func(*trace.Trace) {}
	}
	start := s.now()
	timer := time.AfterFunc(s.cfg.SlowDeadline, func() {
		s.reg.Add("service.slow.analyses", 1)
		// Capture a profile window while the slow analysis is still in
		// flight — the whole point of the trip wire is to see where the
		// overrunning run is spending its time.
		s.cfg.Profiles.TryTrigger(profile.TriggerWatchdog, digest, TraceID(digest))
		s.watchdogLogger().Warn("analysis exceeding deadline",
			"digest", digest,
			"deadline", s.cfg.SlowDeadline.String())
	})
	return func(tr *trace.Trace) {
		stopped := timer.Stop()
		elapsed := s.now().Sub(start)
		// Slowness is decided by elapsed time, not timer state: Stop can
		// win its race against the runtime even after the deadline passed,
		// in which case the in-flight callback never ran and the counter,
		// journal event and rendered span tree would silently go missing.
		if elapsed <= s.cfg.SlowDeadline {
			return
		}
		if stopped {
			s.reg.Add("service.slow.analyses", 1)
			s.cfg.Profiles.TryTrigger(profile.TriggerWatchdog, digest, TraceID(digest))
		}
		s.cfg.Journal.Record(events.Event{
			Type: events.SlowAnalysis, Node: s.cfg.Node, Digest: digest,
			Detail: fmt.Sprintf("elapsed %s over deadline %s", elapsed, s.cfg.SlowDeadline),
		})
		var b strings.Builder
		trace.Render(&b, tr)
		s.watchdogLogger().Warn("slow analysis completed",
			"digest", digest,
			"elapsed", elapsed.String(),
			"deadline", s.cfg.SlowDeadline.String(),
			"spans", b.String())
	}
}

func (s *Server) watchdogLogger() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return slog.Default()
}
