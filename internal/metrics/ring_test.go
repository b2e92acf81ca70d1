package metrics

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// tick is a ring entry with a coarse timestamp, so random sequences are
// full of timestamp ties broken by Key, and of exact duplicates.
type tick struct {
	T   int64  `json:"t"`
	Key string `json:"key"`
}

func (e tick) Compare(o tick) int {
	return cmp.Or(cmp.Compare(o.T, e.T), cmp.Compare(e.Key, o.Key))
}

// reference is the ring's specification: sort, drop duplicates, keep K.
func reference(items []tick, k int) []tick {
	s := slices.Clone(items)
	slices.SortFunc(s, tick.Compare)
	s = slices.CompactFunc(s, func(a, b tick) bool { return a.Compare(b) == 0 })
	if len(s) > k {
		s = s[:k]
	}
	return s
}

func randTicks(rng *rand.Rand, n int) []tick {
	out := make([]tick, n)
	for i := range out {
		out[i] = tick{T: int64(rng.Intn(6)), Key: string(rune('a' + rng.Intn(5)))}
	}
	return out
}

func sameEntries(a, b []tick) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestRingMatchesReference checks, on seeded random sequences, that
// incremental Observe, sharded Merge in any order, self-merge and a JSON
// round trip all equal the sort-dedup-truncate reference.
func TestRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		k := 1 + rng.Intn(10)
		items := randTicks(rng, rng.Intn(40))
		want := reference(items, k)

		single := Ring[tick]{K: k}
		for _, e := range items {
			single.Observe(e)
		}
		if !sameEntries(single.Entries, want) {
			t.Fatalf("iter %d: Observe = %v, want %v", iter, single.Entries, want)
		}

		shards := make([]Ring[tick], 1+rng.Intn(4))
		for i := range shards {
			shards[i].K = k
		}
		for _, e := range items {
			shards[rng.Intn(len(shards))].Observe(e)
		}
		merged := Ring[tick]{}
		for _, i := range rng.Perm(len(shards)) {
			merged.Merge(shards[i])
		}
		if merged.K != k || !sameEntries(merged.Entries, want) {
			t.Fatalf("iter %d: Merge = %v (k=%d), want %v (k=%d)", iter, merged.Entries, merged.K, want, k)
		}

		self := single.Clone()
		self.Merge(single)
		if self.K != single.K || !sameEntries(self.Entries, single.Entries) {
			t.Fatalf("iter %d: Merge(l, l) = %v, want %v", iter, self.Entries, single.Entries)
		}

		// Decoding re-establishes the invariants from any entry order.
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		raw, err := json.Marshal(map[string]any{"k": k, "entries": items})
		if err != nil {
			t.Fatal(err)
		}
		var decoded Ring[tick]
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}
		if decoded.K != k || !sameEntries(decoded.Entries, want) {
			t.Fatalf("iter %d: decoded = %v, want %v", iter, decoded.Entries, want)
		}
	}
}

func TestRingNeverExceedsK(t *testing.T) {
	r := Ring[tick]{K: 3}
	for i := 0; i < 20; i++ {
		r.Observe(tick{T: int64(i)})
	}
	if len(r.Entries) != 3 || r.Entries[0].T != 19 || r.Entries[2].T != 17 {
		t.Fatalf("entries = %v, want the 3 newest", r.Entries)
	}
	var zero Ring[tick]
	zero.Observe(tick{T: 1})
	if len(zero.Entries) != 0 {
		t.Fatalf("zero-capacity ring kept %v", zero.Entries)
	}
	big := Ring[tick]{K: 5}
	big.Merge(r)
	if big.K != 5 || len(big.Entries) != 3 {
		t.Fatalf("merge into larger ring = k %d, %v", big.K, big.Entries)
	}
}
