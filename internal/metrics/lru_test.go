package metrics

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUGetRefreshesRecency(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// a was just used, so b is now the least recently used.
	if old, evicted := c.Put("c", 3); !evicted || old != "b" {
		t.Fatalf("Put(c) evicted %q, %v; want b", old, evicted)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("evicted key b still held")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("Get(%s) = %d, %v; want %d", k, v, ok, want)
		}
	}
}

func TestLRUPutAtCapEvictsLeastRecent(t *testing.T) {
	c := NewLRU[int, string](3)
	for i := 0; i < 3; i++ {
		if _, evicted := c.Put(i, fmt.Sprint(i)); evicted {
			t.Fatalf("Put(%d) below the cap evicted", i)
		}
	}
	for i := 3; i < 6; i++ {
		if old, evicted := c.Put(i, fmt.Sprint(i)); !evicted || old != i-3 {
			t.Fatalf("Put(%d) evicted %d, %v; want %d", i, old, evicted, i-3)
		}
		if c.Len() != 3 {
			t.Fatalf("Len = %d, want 3", c.Len())
		}
	}
}

func TestLRURefreshInPlaceEvictsNothing(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, evicted := c.Put("a", 10); evicted {
		t.Fatal("refreshing a held key evicted")
	}
	if v, _ := c.Get("a"); v != 10 || c.Len() != 2 {
		t.Fatalf("after refresh: a = %d, Len = %d", v, c.Len())
	}
	// The refresh made a most recent: b goes next.
	if old, _ := c.Put("c", 3); old != "b" {
		t.Fatalf("evicted %q, want b", old)
	}
}

func TestLRURemove(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Remove("a")
	c.Remove("missing")
	if _, ok := c.Get("a"); ok || c.Len() != 1 {
		t.Fatalf("after Remove: a held %v, Len = %d", ok, c.Len())
	}
	// The freed slot takes a new key without evicting b.
	if _, evicted := c.Put("c", 3); evicted {
		t.Fatal("Put into a freed slot evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b lost")
	}
}

// TestLRUConcurrent runs Get, Put and Remove from many goroutines — the
// -race companion to the cap: the LRU never holds more than its
// capacity, and its list and index agree afterwards.
func TestLRUConcurrent(t *testing.T) {
	const capacity = 8
	c := NewLRU[int, int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*7 + i) % 32
				if v, ok := c.Get(k); ok && v != k*k {
					t.Errorf("Get(%d) = %d", k, v)
				}
				c.Put(k, k*k)
				if i%50 == 0 {
					c.Remove(k)
				}
				if n := c.Len(); n > capacity {
					t.Errorf("Len = %d past the cap", n)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Fatalf("Len = %d past the cap", n)
	}
	// The recency list and the index still agree.
	linked := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		if k := el.Value.(*lruEntry[int, int]).key; c.items[k] != el {
			t.Fatalf("listed key %d not indexed", k)
		}
		linked++
	}
	if linked != len(c.items) {
		t.Fatalf("list holds %d entries, index %d", linked, len(c.items))
	}
}
