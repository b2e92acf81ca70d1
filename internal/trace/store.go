package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/dydroid/dydroid/internal/metrics"
)

// ErrNotFound is returned by Store.Get for digests with no stored trace.
var ErrNotFound = errors.New("trace: not found")

// StoreOptions configure a Store.
type StoreOptions struct {
	// Dir, when non-empty, persists traces as <digest>.json files (one
	// JSONL line each) and reloads them on Open. Empty keeps traces in
	// memory only.
	Dir string
	// Cap bounds the number of traces kept; inserting past it evicts the
	// least recently stored/read trace (and deletes its file). Default
	// 512.
	Cap int
	// Metrics, when non-nil, receives the store's occupancy gauge
	// (trace.store.len) and put/eviction counters (trace.store.puts,
	// trace.store.evictions), making its memory pressure visible.
	Metrics *metrics.Registry
}

// Store is a bounded trace store keyed by APK signing digest: the newest
// Cap traces stay available (in memory, and on disk when Dir is set) and
// older ones are evicted. All methods are safe for concurrent use.
type Store struct {
	dir string
	reg *metrics.Registry

	mu  sync.Mutex // orders each file write with its LRU insert
	lru *metrics.LRU[string, json.RawMessage]
}

// OpenStore creates a store, loading any traces already in opts.Dir
// (oldest evicted first when they exceed the cap).
func OpenStore(opts StoreOptions) (*Store, error) {
	if opts.Cap <= 0 {
		opts.Cap = 512
	}
	s := &Store{
		dir: opts.Dir,
		reg: opts.Metrics,
		lru: metrics.NewLRU[string, json.RawMessage](opts.Cap),
	}
	if s.dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load restores persisted traces in modification-time order so the LRU
// eviction order survives restarts. Unreadable or malformed files are
// skipped, never fatal — traces are advisory observability data.
func (s *Store) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	type onDisk struct {
		digest string
		mod    int64
	}
	var found []onDisk
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		digest := e.Name()[:len(e.Name())-len(".json")]
		if !validDigest(digest) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{digest: digest, mod: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mod < found[j].mod })
	for _, f := range found {
		raw, err := os.ReadFile(s.tracePath(f.digest))
		if err != nil || !json.Valid(raw) {
			continue
		}
		s.insert(f.digest, json.RawMessage(raw))
	}
	return nil
}

// validDigest accepts lowercase-hex digests only, keeping trace file
// paths trivially traversal-safe (same rule as the result store).
func validDigest(d string) bool {
	if len(d) < 2 || len(d) > 128 {
		return false
	}
	for _, c := range d {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) tracePath(digest string) string {
	return filepath.Join(s.dir, digest+".json")
}

// Put stores the trace under its digest, replacing any previous trace
// and evicting the least recently used one past the cap.
func (s *Store) Put(t *Trace) error {
	if t == nil || !validDigest(t.Digest) {
		return fmt.Errorf("trace: store requires a valid digest, got %q", digestOf(t))
	}
	raw, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir != "" {
		if err := os.WriteFile(s.tracePath(t.Digest), raw, 0o644); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	s.reg.Add("trace.store.puts", 1)
	s.insert(t.Digest, raw)
	return nil
}

// insert adds or refreshes an entry, evicting (and deleting the file of)
// the least recently used one past the cap. Callers in the write path
// hold s.mu; load runs before the store is shared.
func (s *Store) insert(digest string, raw json.RawMessage) {
	if evicted, ok := s.lru.Put(digest, raw); ok {
		s.reg.Add("trace.store.evictions", 1)
		if s.dir != "" {
			os.Remove(s.tracePath(evicted))
		}
	}
	s.reg.SetGauge("trace.store.len", int64(s.lru.Len()))
}

// GetRaw returns the stored trace's JSON bytes (the exact body the
// daemon serves at /v1/trace/{digest}), or ErrNotFound.
func (s *Store) GetRaw(digest string) (json.RawMessage, error) {
	raw, ok := s.lru.Get(digest)
	if !ok {
		return nil, ErrNotFound
	}
	return raw, nil
}

// Get returns the decoded trace for the digest, or ErrNotFound.
func (s *Store) Get(digest string) (*Trace, error) {
	raw, err := s.GetRaw(digest)
	if err != nil {
		return nil, err
	}
	t := new(Trace)
	if err := json.Unmarshal(raw, t); err != nil {
		return nil, fmt.Errorf("trace: decode %s: %w", digest, err)
	}
	return t, nil
}

// Len reports the number of stored traces.
func (s *Store) Len() int {
	return s.lru.Len()
}

func digestOf(t *Trace) string {
	if t == nil {
		return ""
	}
	return t.Digest
}
