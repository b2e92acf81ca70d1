package experiments

import (
	"maps"
	"sort"
	"strings"
	"testing"

	"github.com/dydroid/dydroid/internal/core"
)

// runSmall executes one measurement at a small scale, shared across tests.
var cachedResults *Results

func small(t *testing.T) *Results {
	t.Helper()
	if cachedResults != nil {
		return cachedResults
	}
	res, err := Run(Config{Seed: 11, Scale: 0.004, Workers: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cachedResults = res
	return res
}

func TestRunProducesRecordForEveryApp(t *testing.T) {
	res := small(t)
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	for i, rec := range res.Records {
		if rec == nil || rec.Result == nil {
			t.Fatalf("record %d missing", i)
		}
		if rec.Result.Status == "" {
			t.Fatalf("record %d has no status", i)
		}
	}
}

func TestTableIIShape(t *testing.T) {
	res := small(t)
	var dexCand, dexInt, natCand, natInt int
	for _, rec := range res.Records {
		if dexCandidate(rec) {
			dexCand++
			if dexIntercepted(rec) {
				dexInt++
			}
		}
		if nativeCandidate(rec) {
			natCand++
			if nativeIntercepted(rec) {
				natInt++
			}
		}
	}
	// Shape assertions from the paper: candidates dominate the corpus but
	// interception is a strict subset; DEX candidates > native candidates.
	if dexCand <= natCand {
		t.Fatalf("dex candidates %d <= native candidates %d", dexCand, natCand)
	}
	if dexInt == 0 || natInt == 0 {
		t.Fatalf("no interceptions: dex=%d native=%d", dexInt, natInt)
	}
	if dexInt >= dexCand || natInt >= natCand {
		t.Fatalf("interception not a strict subset: %d/%d, %d/%d", dexInt, dexCand, natInt, natCand)
	}
	// Interception rates should be in the paper's ballpark (41%/54%).
	dexRate := float64(dexInt) / float64(dexCand)
	natRate := float64(natInt) / float64(natCand)
	if dexRate < 0.25 || dexRate > 0.60 {
		t.Fatalf("dex interception rate %.2f out of band", dexRate)
	}
	if natRate < 0.35 || natRate > 0.75 {
		t.Fatalf("native interception rate %.2f out of band", natRate)
	}
	if natRate <= dexRate {
		t.Fatalf("paper shape violated: native rate %.2f <= dex rate %.2f", natRate, dexRate)
	}
}

func TestTableIIIShape(t *testing.T) {
	// At tiny scales the fixed 10M-download sample apps dominate group
	// means, so the shape check uses medians, which the generator's group
	// multipliers move directly.
	res := small(t)
	var dexD, nodexD, natD, nonatD []float64
	for _, rec := range res.Records {
		d := float64(rec.Meta.Downloads)
		if dexCandidate(rec) {
			dexD = append(dexD, d)
		} else {
			nodexD = append(nodexD, d)
		}
		if nativeCandidate(rec) {
			natD = append(natD, d)
		} else {
			nonatD = append(nonatD, d)
		}
	}
	if len(dexD) == 0 || len(nodexD) == 0 || len(natD) == 0 || len(nonatD) == 0 {
		t.Fatal("empty popularity groups")
	}
	if median(dexD) <= median(nodexD) {
		t.Fatalf("paper shape violated: DEX median %.0f <= non-DEX median %.0f",
			median(dexD), median(nodexD))
	}
	if median(natD) <= median(nonatD) {
		t.Fatalf("paper shape violated: native median %.0f <= non-native median %.0f",
			median(natD), median(nonatD))
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func TestTableIVShape(t *testing.T) {
	res := small(t)
	var dexThird, dexTotal int
	for _, rec := range res.Records {
		if !dexIntercepted(rec) {
			continue
		}
		dexTotal++
		_, third := rec.Result.Entities(core.KindDex)
		if third {
			dexThird++
		}
	}
	if dexTotal == 0 {
		t.Fatal("no dex interceptions")
	}
	// Paper: over 85% of DCL is initiated by third parties.
	if rate := float64(dexThird) / float64(dexTotal); rate < 0.85 {
		t.Fatalf("third-party rate %.2f < 0.85", rate)
	}
}

func TestTableVFindsRemoteApps(t *testing.T) {
	res := small(t)
	remote := 0
	for _, rec := range res.Records {
		if len(rec.Result.RemoteURLs()) > 0 {
			remote++
			for _, u := range rec.Result.RemoteURLs() {
				if !strings.Contains(u, "mobads.baidu.com") {
					t.Fatalf("unexpected remote origin %s", u)
				}
			}
		}
	}
	if remote == 0 {
		t.Fatal("no remote-fetch apps found")
	}
}

func TestTableVIIMalwareRecovered(t *testing.T) {
	res := small(t)
	families := map[string]int{}
	for _, rec := range res.Records {
		seen := map[string]bool{}
		for _, hit := range rec.Result.Malware {
			if !seen[hit.Family] {
				seen[hit.Family] = true
				families[hit.Family]++
			}
		}
	}
	for _, fam := range []string{"Swiss code monkeys", "Adware airpush minimob", "Chathook ptrace"} {
		if families[fam] == 0 {
			t.Fatalf("family %q not recovered: %+v", fam, families)
		}
	}
	// No other families should fire (the 16 synthetic training families
	// are not planted in the corpus).
	if len(families) != 3 {
		t.Fatalf("unexpected families: %+v", families)
	}
}

func TestTableVIIIGating(t *testing.T) {
	res := small(t)
	totalFiles := 0
	loadedNormally := 0
	suppressedSomewhere := 0
	for _, rec := range res.Records {
		if rec.MalwarePaths == nil {
			continue
		}
		for path := range rec.MalwarePaths {
			totalFiles++
			loadedNormally++
			for _, cfg := range core.AllReplayConfigs {
				if !rec.ReplayLoaded[cfg][path] {
					suppressedSomewhere++
					break
				}
			}
		}
	}
	if totalFiles == 0 {
		t.Fatal("no malicious files")
	}
	if suppressedSomewhere == 0 {
		t.Fatal("no file was gated under any configuration")
	}
}

func TestTableIXVulns(t *testing.T) {
	res := small(t)
	kinds := map[core.VulnKind]int{}
	for _, rec := range res.Records {
		for _, v := range rec.Result.Vulns {
			kinds[v.Kind]++
		}
	}
	if kinds[core.VulnExternalStorage] == 0 || kinds[core.VulnOtherAppInternal] == 0 {
		t.Fatalf("vulnerability kinds missing: %+v", kinds)
	}
}

func TestTableXPrivacy(t *testing.T) {
	res := small(t)
	settings := 0
	withDex := 0
	for _, rec := range res.Records {
		if !dexIntercepted(rec) {
			continue
		}
		withDex++
		if rec.Result.Privacy == nil {
			continue
		}
		for _, dt := range rec.Result.Privacy.LeakedTypes() {
			if string(dt) == "Settings" {
				settings++
			}
		}
	}
	if withDex == 0 {
		t.Fatal("no dex interceptions")
	}
	// Paper shape: the settings row dominates (ad apps read settings).
	if rate := float64(settings) / float64(withDex); rate < 0.5 {
		t.Fatalf("settings rate %.2f too low", rate)
	}
}

func TestReportRenders(t *testing.T) {
	res := small(t)
	report := res.Report()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table IV", "Table V",
		"Table VI", "Figure 3", "Table VII", "Table VIII", "Table IX", "Table X",
		"Swiss code monkeys", "DEX encryption",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// The measurement must not depend on scheduling: every per-app result
	// is identical whether the pipeline runs on one worker or eight.
	r1, err := Run(Config{Seed: 21, Scale: 0.002, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(Config{Seed: 21, Scale: 0.002, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Records) != len(r8.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(r1.Records), len(r8.Records))
	}
	for i := range r1.Records {
		a, b := r1.Records[i], r8.Records[i]
		if a.Meta.Package != b.Meta.Package ||
			a.Result.Status != b.Result.Status ||
			len(a.Result.Events) != len(b.Result.Events) ||
			len(a.Result.Malware) != len(b.Result.Malware) ||
			len(a.Result.Vulns) != len(b.Result.Vulns) {
			t.Fatalf("record %d differs between worker counts:\n1: %+v\n8: %+v",
				i, a.Result, b.Result)
		}
		for j := range a.Result.Events {
			ea, eb := a.Result.Events[j], b.Result.Events[j]
			if ea.Path != eb.Path || ea.Entity != eb.Entity || ea.Provenance != eb.Provenance {
				t.Fatalf("record %d event %d differs: %+v vs %+v", i, j, ea, eb)
			}
		}
	}
	// The run's aggregates depend only on the corpus too: the Table II
	// status tallies and how many spans each stage produced.
	s1, s8 := r1.RunStats, r8.RunStats
	if !maps.Equal(s1.StatusCounts, s8.StatusCounts) {
		t.Errorf("status counts differ between worker counts:\n1: %v\n8: %v", s1.StatusCounts, s8.StatusCounts)
	}
	if len(s1.StageQuantiles) == 0 || len(s1.StageQuantiles) != len(s8.StageQuantiles) {
		t.Fatalf("span names differ between worker counts: %d vs %d", len(s1.StageQuantiles), len(s8.StageQuantiles))
	}
	for name, q1 := range s1.StageQuantiles {
		q8, ok := s8.StageQuantiles[name]
		if !ok || q1.Count != q8.Count {
			t.Errorf("span %q count differs between worker counts: %d vs %d (present %v)", name, q1.Count, q8.Count, ok)
		}
	}
}
