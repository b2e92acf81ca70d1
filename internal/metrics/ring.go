package metrics

import (
	"encoding/json"
	"slices"
)

// Ring is the one bounded, mergeable selection list of the harness: it
// keeps the K first distinct entries under E's order (newest events,
// slowest analyses). E.Compare must be a total order over every
// serialized field: negative when the entry sorts ahead of o, zero only
// when the two are interchangeable. Entries stay sorted, so Observe is a
// binary-search insert and Merge a linear merge of two sorted lists. An
// entry equal under the order to one already held is dropped, which
// makes Merge idempotent as well as associative and commutative: folding
// per-shard rings reproduces the single-pass ring exactly. A ring never
// holds more than K entries, and Merge keeps max(K) of the two.
type Ring[E interface{ Compare(o E) int }] struct {
	K       int `json:"k"`
	Entries []E `json:"entries,omitempty"`
}

// Observe offers one entry to the ring.
func (r *Ring[E]) Observe(e E) {
	i, found := slices.BinarySearchFunc(r.Entries, e, E.Compare)
	if found || i >= r.K {
		return
	}
	if len(r.Entries) >= r.K {
		r.Entries = r.Entries[:r.K-1]
	}
	r.Entries = slices.Insert(r.Entries, i, e)
}

// Merge folds o into r.
func (r *Ring[E]) Merge(o Ring[E]) {
	r.K = max(r.K, o.K)
	a, b := r.Entries, o.Entries
	out := make([]E, 0, min(r.K, len(a)+len(b)))
	for len(out) < r.K && (len(a) > 0 || len(b) > 0) {
		var e E
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].Compare(b[0]) <= 0:
			e, a = a[0], a[1:]
		default:
			e, b = b[0], b[1:]
		}
		if n := len(out); n == 0 || out[n-1].Compare(e) != 0 {
			out = append(out, e)
		}
	}
	r.Entries = out
}

// Clone returns a deep copy of the ring's entry list.
func (r Ring[E]) Clone() Ring[E] {
	return Ring[E]{K: r.K, Entries: slices.Clone(r.Entries)}
}

// UnmarshalJSON decodes a ring and re-establishes its invariants
// (sorted, distinct, at most K entries), so a list written by another
// binary or edited by hand still merges linearly.
func (r *Ring[E]) UnmarshalJSON(raw []byte) error {
	var wire struct {
		K       int `json:"k"`
		Entries []E `json:"entries"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		return err
	}
	*r = Ring[E]{K: wire.K}
	for _, e := range wire.Entries {
		r.Observe(e)
	}
	return nil
}
