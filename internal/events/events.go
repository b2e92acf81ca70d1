// Package events is the ops event journal of the vetting fleet: a
// bounded, mergeable ring of structured lifecycle events — node ejections
// and rejoins, scan failovers, queue saturation transitions, drain
// start/stop, slow-analysis watchdog hits. Where the trace layer answers
// "why was this one scan slow", the journal answers "what happened to the
// fleet": every operationally interesting transition lands here with a
// timestamp, so an operator curling /v1/events can reconstruct an
// incident without grepping logs.
//
// The journal's aggregate form is a Log, the shared metrics.Ring over
// Event: a newest-first selection by a deterministic total order, exactly
// mergeable like every other fleet snapshot field — a coordinator folds
// its members' logs with its own and the result is independent of merge
// order. The coordinator serves the federated log at /v1/events and
// names unreachable members in X-Dydroid-Nodes-Missing. Events serialize
// one JSON object per line (JSONL), the same interchange convention the
// trace layer uses.
package events

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/metrics"
)

// Type names one lifecycle transition.
type Type string

// The journal's event vocabulary.
const (
	// NodeEjected: the coordinator removed a worker from the ring after K
	// consecutive probe or forward failures.
	NodeEjected Type = "node-ejected"
	// NodeRejoined: an ejected worker answered a probe and returned to the
	// ring at its old arc.
	NodeRejoined Type = "node-rejoined"
	// ScanFailover: a forwarded scan could not reach its owner and moved
	// to the next ring successor.
	ScanFailover Type = "scan-failover"
	// QueueDegraded: a worker's submission queue crossed the saturation
	// threshold (≥80% full).
	QueueDegraded Type = "queue-degraded"
	// QueueRecovered: the queue dropped back below the threshold.
	QueueRecovered Type = "queue-recovered"
	// DrainStarted: the daemon stopped accepting submissions and began
	// draining in-flight jobs.
	DrainStarted Type = "drain-started"
	// DrainFinished: every queued and in-flight job completed.
	DrainFinished Type = "drain-finished"
	// SlowAnalysis: an analysis outlived the -slow-deadline watchdog.
	SlowAnalysis Type = "slow-analysis"
	// ProfileCaptured: an alert (SLO burn rate, watchdog) triggered an
	// immediate CPU-profile window, tagged with the offending digest.
	ProfileCaptured Type = "profile-captured"
)

// knownTypes is the decode-side vocabulary check: a journal line whose
// kind is outside it is a corrupt or incompatible stream, reported
// loudly rather than folded silently into an aggregate.
var knownTypes = map[Type]bool{
	NodeEjected: true, NodeRejoined: true, ScanFailover: true,
	QueueDegraded: true, QueueRecovered: true,
	DrainStarted: true, DrainFinished: true,
	SlowAnalysis: true, ProfileCaptured: true,
}

// Known reports whether t is part of the journal vocabulary.
func (t Type) Known() bool { return knownTypes[t] }

// Event is one timestamped lifecycle transition.
type Event struct {
	Time time.Time `json:"time"`
	Type Type      `json:"type"`
	// Node names the fleet member the event concerns (a worker address on
	// coordinator events, the serving node's own name otherwise).
	Node string `json:"node,omitempty"`
	// Digest keys scan-scoped events (failover, slow analysis).
	Digest string `json:"digest,omitempty"`
	// Detail is a human-readable elaboration (reason, error, queue fill).
	Detail string `json:"detail,omitempty"`
}

// Compare orders the journal newest first, then by kind, node, digest
// and detail, so merges of member logs are independent of arrival order.
func (e Event) Compare(o Event) int {
	return cmp.Or(o.Time.Compare(e.Time), cmp.Compare(e.Type, o.Type),
		cmp.Compare(e.Node, o.Node), cmp.Compare(e.Digest, o.Digest), cmp.Compare(e.Detail, o.Detail))
}

// DefaultCap bounds a journal when no capacity is given.
const DefaultCap = 128

// Log is the bounded newest-first event list — the serialization and
// merge unit of the journal. It is the shared metrics.Ring: identical
// events collapse (a log merged into itself, or a member refetched by
// the coordinator, never doubles its entries), and merging per-node logs
// is associative, commutative and independent of arrival order.
type Log = metrics.Ring[Event]

// Journal is the live concurrent collector: Record appends events as they
// happen, Log snapshots the bounded aggregate. All methods are safe for
// concurrent use and no-ops on a nil receiver, so callers can thread an
// optional *Journal without nil checks.
type Journal struct {
	mu  sync.Mutex
	log Log
}

// NewJournal creates a journal keeping the newest cap events
// (DefaultCap when cap <= 0).
func NewJournal(cap int) *Journal {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Journal{log: Log{K: cap}}
}

// Record appends one event, stamping Time with the current time when the
// caller left it zero.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	j.mu.Lock()
	j.log.Observe(e)
	j.mu.Unlock()
}

// Log returns a deep copy of the current bounded aggregate, safe to
// serialize or merge while recording continues.
func (j *Journal) Log() Log {
	if j == nil {
		return Log{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Clone()
}

// Len reports the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.log.Entries)
}

// EncodeJSONL writes each event as one compact JSON object per line —
// the GET /v1/events body and the events.jsonl artifact format.
func EncodeJSONL(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range evs {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("events: encode: %w", err)
		}
	}
	return nil
}

// DecodeJSONL reads every event from a JSONL stream. Blank lines are
// skipped; a malformed line — truncated JSON or an event kind outside
// the journal vocabulary — fails the decode with its line number.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("events: line %d: %w", line, err)
		}
		if !e.Type.Known() {
			return nil, fmt.Errorf("events: line %d: unknown event kind %q", line, e.Type)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return out, nil
}
