package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/metrics"
)

func storedTrace(digest string) *Trace {
	tr := New("app", WithID(digest+"ffffffffffffffff"), WithDigest(digest))
	tr.Root.End()
	return tr
}

// digests produces valid lowercase-hex store keys: "a0", "a1", ...
func testDigest(i int) string { return fmt.Sprintf("a%x", i) }

func TestStoreMemoryPutGet(t *testing.T) {
	s, err := OpenStore(StoreOptions{Cap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("ab"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get of empty store = %v, want ErrNotFound", err)
	}
	tr := storedTrace("ab12cd34")
	if err := s.Put(tr); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("ab12cd34")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != tr.ID || got.Root == nil || got.Root.Name != "app" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	raw, err := s.GetRaw("ab12cd34")
	if err != nil || len(raw) == 0 {
		t.Fatalf("GetRaw = (%d bytes, %v)", len(raw), err)
	}

	if err := s.Put(&Trace{Digest: "NOT-HEX", Root: &Span{Name: "x"}}); err == nil {
		t.Fatal("want error for invalid digest")
	}
	if err := s.Put(nil); err == nil {
		t.Fatal("want error for nil trace")
	}
}

func TestStoreEvictsLeastRecentlyUsed(t *testing.T) {
	s, err := OpenStore(StoreOptions{Cap: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(storedTrace(testDigest(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a0 so a1 becomes the eviction victim.
	if _, err := s.Get(testDigest(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(storedTrace(testDigest(3))); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want cap 3", s.Len())
	}
	if _, err := s.Get(testDigest(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a1 should have been evicted, got %v", err)
	}
	for _, d := range []string{testDigest(0), testDigest(2), testDigest(3)} {
		if _, err := s.Get(d); err != nil {
			t.Fatalf("%s should survive: %v", d, err)
		}
	}
}

func TestStoreDiskPersistsAndReloads(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir, Cap: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(storedTrace(testDigest(i))); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the reload order is deterministic even on
		// coarse filesystem clocks.
		past := time.Now().Add(time.Duration(i-10) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, testDigest(i)+".json"), past, past); err != nil {
			t.Fatal(err)
		}
	}
	// Garbage files are skipped on reload, never fatal.
	os.WriteFile(filepath.Join(dir, "ff.json"), []byte("not json"), 0o644)
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644)

	re, err := OpenStore(StoreOptions{Dir: dir, Cap: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Cap 2 on reload of 3 traces evicts the oldest (a0).
	if re.Len() != 2 {
		t.Fatalf("reloaded len = %d, want 2", re.Len())
	}
	if _, err := re.Get(testDigest(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest trace should be evicted on reload, got %v", err)
	}
	got, err := re.Get(testDigest(2))
	if err != nil || got.Digest != testDigest(2) {
		t.Fatalf("reload lost newest trace: %v %v", got, err)
	}
	// Eviction removed the file, not just the entry.
	if _, err := os.Stat(filepath.Join(dir, testDigest(0)+".json")); !os.IsNotExist(err) {
		t.Fatalf("evicted trace file should be deleted, stat err = %v", err)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, err := OpenStore(StoreOptions{Cap: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d := testDigest(i % 16)
				if i%2 == w%2 {
					s.Put(storedTrace(d))
				} else {
					s.Get(d)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 8 {
		t.Fatalf("len = %d, want <= cap", s.Len())
	}
}

func TestStoreMetrics(t *testing.T) {
	reg := metrics.New()
	s, err := OpenStore(StoreOptions{Cap: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(storedTrace(testDigest(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("trace.store.puts"); got != 3 {
		t.Fatalf("puts counter = %d, want 3", got)
	}
	if got := reg.Counter("trace.store.evictions"); got != 1 {
		t.Fatalf("evictions counter = %d, want 1", got)
	}
	if got := reg.Gauge("trace.store.len"); got != 2 {
		t.Fatalf("occupancy gauge = %d, want 2", got)
	}
	// Refreshing an existing digest counts as a put but changes nothing else.
	if err := s.Put(storedTrace(testDigest(1))); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("trace.store.puts"); got != 4 {
		t.Fatalf("puts counter after refresh = %d, want 4", got)
	}
	if got := reg.Gauge("trace.store.len"); got != 2 {
		t.Fatalf("occupancy gauge after refresh = %d, want 2", got)
	}
}

// TestStoreReopenCountsNoPuts: traces restored from Dir on open are not
// puts; they show only in the occupancy gauge.
func TestStoreReopenCountsNoPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(storedTrace(testDigest(i))); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.New()
	re, err := OpenStore(StoreOptions{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("trace.store.puts"); got != 0 {
		t.Fatalf("puts counter after reopen = %d, want 0", got)
	}
	if got := reg.Gauge("trace.store.len"); got != 3 || re.Len() != 3 {
		t.Fatalf("occupancy after reopen = gauge %d, Len %d; want 3", got, re.Len())
	}
}
