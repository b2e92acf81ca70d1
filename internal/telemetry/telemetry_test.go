package telemetry

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/trace"
)

// appTrace builds a deterministic closed span tree: an "app" root with an
// "analyze" child, start pinned to base and the given durations.
func appTrace(digest string, base time.Time, total, analyze time.Duration) *trace.Trace {
	root := &trace.Span{Name: "app", StartAt: base, EndAt: base.Add(total)}
	child := &trace.Span{Name: "analyze", StartAt: base, EndAt: base.Add(analyze)}
	root.Children = []*trace.Span{child}
	return &trace.Trace{ID: "t-" + digest, Digest: digest, Root: root}
}

func TestObserveAppAggregates(t *testing.T) {
	a := New(Options{})
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	res := &core.AppResult{
		Package: "com.example.app",
		Status:  core.StatusExercised,
		Events: []*core.DCLEvent{
			{Kind: core.KindDex, API: "DexClassLoader", Path: "/data/p.dex",
				CallSite: "com.ads.sdk.Loader", Entity: core.EntityThirdParty,
				Provenance: core.ProvenanceRemote, SourceURL: "http://cdn.example/p.dex"},
			{Kind: core.KindNative, API: "System.load", Path: "/data/l.so",
				CallSite: "com.example.app.Main", Entity: core.EntityOwn,
				Provenance: core.ProvenanceLocal},
			{Kind: core.KindDex, API: "PathClassLoader", Path: "/system/fw.jar",
				SystemLib: true},
		},
		Malware: []core.MalwareHit{{Path: "/data/p.dex", Kind: core.KindDex, Family: "dowgin", Score: 0.9}},
		Vulns:   []core.Vulnerability{{Kind: core.VulnExternalStorage, Code: core.KindDex, Path: "/sdcard/x.dex"}},
	}
	res.PreFilter.HasDexDCL = true
	a.ObserveApp(res, appTrace("ab12", base, 80*time.Millisecond, 60*time.Millisecond))
	a.ObserveVerdict(false)
	a.ObserveError("com.broken.app", errFake("vm exploded"), nil)

	s := a.Snapshot()
	if s.Apps != 1 || s.Errors != 1 {
		t.Fatalf("apps=%d errors=%d", s.Apps, s.Errors)
	}
	for key, want := range map[string]int64{
		"status.exercised":            1,
		"apps.dex-candidate":          1,
		"apps.dex-dcl":                1,
		"apps.native-dcl":             1,
		"apps.remote":                 1,
		"apps.dex-entity.third-party": 1,
		"apps.native-entity.own":      1,
		"dcl.kind.dex":                1, // system-lib load skipped
		"dcl.kind.native":             1,
		"dcl.api.DexClassLoader":      1,
		"dcl.provenance.remote":       1,
		"dcl.entity.third-party":      1,
		"apps.malware":                1,
		"malware.hits":                1,
		"malware.family.dowgin":       1,
		"vuln.external-storage":       1,
		"verdict.rejected":            1,
	} {
		if got := s.Counters[key]; got != want {
			t.Errorf("counter %s = %d, want %d", key, got, want)
		}
	}
	if len(s.TopEntities.Entries) != 1 || s.TopEntities.Entries[0].Key != "com.ads.sdk.Loader" {
		t.Fatalf("top entities = %+v", s.TopEntities.Entries)
	}
	if h := s.Stages["analyze"]; h == nil || h.Count != 1 || h.Quantile(0.5) != 60*time.Millisecond {
		t.Fatalf("analyze stage hist = %+v", s.Stages["analyze"])
	}
	if len(s.SlowestApps.Entries) != 1 || s.SlowestApps.Entries[0].NS != int64(80*time.Millisecond) {
		t.Fatalf("slowest = %+v", s.SlowestApps.Entries)
	}
	if len(s.RecentDCL.Entries) != 2 {
		t.Fatalf("recent DCL ring = %+v", s.RecentDCL.Entries)
	}
	if got := s.RecentDCL.Entries[0].Time; !got.Equal(base.Add(80 * time.Millisecond)) {
		t.Fatalf("recent event time = %v", got)
	}
	if len(s.RecentErrors.Entries) != 1 || s.RecentErrors.Entries[0].Err != "vm exploded" {
		t.Fatalf("recent errors = %+v", s.RecentErrors.Entries)
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }

func TestNilAggregatorIsNoOp(t *testing.T) {
	var a *Aggregator
	a.ObserveApp(&core.AppResult{Package: "x"}, nil)
	a.ObserveVerdict(true)
	a.ObserveError("x", errFake("boom"), nil)
	if s := a.Snapshot(); s == nil || s.Apps != 0 {
		t.Fatalf("nil aggregator snapshot = %+v", s)
	}
}

func TestTopKSpaceSaving(t *testing.T) {
	tk := TopK{K: 2}
	for i := 0; i < 5; i++ {
		tk.Observe("heavy")
	}
	tk.Observe("mid")
	tk.Observe("mid")
	// Sketch full: a new key evicts the minimum and inherits its count.
	tk.Observe("new")
	if len(tk.Entries) != 2 {
		t.Fatalf("entries = %+v", tk.Entries)
	}
	if tk.Entries[0].Key != "heavy" || tk.Entries[0].Count != 5 || tk.Entries[0].Err != 0 {
		t.Fatalf("heavy entry = %+v", tk.Entries[0])
	}
	if tk.Entries[1].Key != "new" || tk.Entries[1].Count != 3 || tk.Entries[1].Err != 2 {
		t.Fatalf("evicting entry = %+v", tk.Entries[1])
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	a := New(Options{})
	a.ObserveApp(&core.AppResult{Package: "com.x", Status: core.StatusNoDCL}, nil)
	snap := a.Snapshot()
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(snap)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Fatalf("round trip mismatch:\n%s\n%s", want, have)
	}
	// A wrong version must be rejected, not silently merged.
	got.Version = 99
	if err := got.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("version 99 snapshot accepted")
	}
}

func TestMeasurementReportRenders(t *testing.T) {
	a := New(Options{})
	a.ObserveApp(&core.AppResult{
		Package: "com.x", Status: core.StatusExercised,
		Events: []*core.DCLEvent{{Kind: core.KindDex, API: "DexClassLoader",
			Path: "/data/x.dex", CallSite: "com.sdk.A", Entity: core.EntityThirdParty,
			Provenance: core.ProvenanceLocal}},
	}, nil)
	a.ObserveVerdict(true)
	out := a.Snapshot().Report()
	for _, want := range []string{
		"fleet: 1 apps across 1 shard(s)",
		"Apps by status",
		"DCL prevalence",
		"DexClassLoader",
		"Top third-party entities",
		"com.sdk.A",
		"Bouncer approved",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestDashboardRenders(t *testing.T) {
	a := New(Options{})
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	res := &core.AppResult{
		Package: "com.dash.app", Status: core.StatusExercised,
		Events: []*core.DCLEvent{{Kind: core.KindDex, API: "DexClassLoader",
			Path: "/data/d.dex", CallSite: "com.sdk.B", Entity: core.EntityThirdParty,
			Provenance: core.ProvenanceRemote, SourceURL: "http://evil.example/d.dex"}},
	}
	a.ObserveApp(res, appTrace("cd34", base, 50*time.Millisecond, 40*time.Millisecond))
	a.ObserveError("com.sad.app", errFake("decompiler gave up"), nil)

	var b strings.Builder
	err := RenderDashboard(&b, DashboardData{
		Title:   "dydroidd fleet",
		Refresh: 2,
		Header:  []KV{{Key: "record version", Value: "1"}},
		Snap:    a.Snapshot(),
		Gauges:  map[string]int64{"runtime.goroutines": 12, "runtime.heap_alloc_bytes": 5 << 20},
		Now:     base,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`<meta http-equiv="refresh" content="2">`,
		"dydroidd fleet",
		"record version: 1",
		"com.dash.app",
		"com.sdk.B",
		"Recent DCL events",
		"decompiler gave up",
		"goroutines",
		"5.0 MiB",
		"Stage latency",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	if strings.Contains(out, "<script") {
		t.Fatal("dashboard must not ship scripts")
	}
}

func TestRuntimeSampler(t *testing.T) {
	reg := metrics.New()
	SampleRuntime(reg)
	if reg.Gauge("runtime.goroutines") <= 0 {
		t.Fatalf("goroutines gauge = %d", reg.Gauge("runtime.goroutines"))
	}
	if reg.Gauge("runtime.heap_alloc_bytes") <= 0 {
		t.Fatalf("heap gauge = %d", reg.Gauge("runtime.heap_alloc_bytes"))
	}
}

func TestAggregatorConcurrent(t *testing.T) {
	a := New(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
			for i := 0; i < 50; i++ {
				res := &core.AppResult{
					Package: "com.w" + string(rune('a'+w)), Status: core.StatusExercised,
					Events: []*core.DCLEvent{{Kind: core.KindDex, API: "DexClassLoader",
						Path: "/data/x.dex", CallSite: "com.sdk.C",
						Entity: core.EntityThirdParty, Provenance: core.ProvenanceLocal}},
				}
				a.ObserveApp(res, appTrace("ee00", base, time.Millisecond, time.Millisecond))
				a.ObserveVerdict(i%2 == 0)
				if i%10 == 0 {
					a.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := a.Snapshot()
	if s.Apps != 400 {
		t.Fatalf("apps = %d, want 400", s.Apps)
	}
	if s.Counters["dcl.api.DexClassLoader"] != 400 {
		t.Fatalf("dcl counter = %d", s.Counters["dcl.api.DexClassLoader"])
	}
}
