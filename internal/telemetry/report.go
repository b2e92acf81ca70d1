package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/stats"
)

// MeasurementReport renders the deterministic paper-style aggregate
// tables: status mix, DCL prevalence by kind / provenance / entity,
// loader APIs, obfuscation and packer adoption, malware, vulnerabilities
// and bouncer verdicts. It depends only on the measurement counters, so
// merging the per-shard snapshots of a partitioned corpus renders the
// byte-identical report of the unpartitioned run.
func (s *Snapshot) MeasurementReport() string {
	var b strings.Builder
	apps := int(s.Apps)
	fmt.Fprintf(&b, "fleet: %d apps across %d shard(s), %d analysis error(s)\n\n",
		s.Apps, s.Shards, s.Errors)

	status := stats.NewTable("Apps by status", "status", "apps")
	for _, st := range []core.Status{
		core.StatusExercised, core.StatusNoDCL, core.StatusUnpackFailure,
		core.StatusRewriteFailure, core.StatusNoActivity, core.StatusCrash,
		core.StatusAnalysisError,
	} {
		if n := s.Counters["status."+string(st)]; n > 0 {
			status.Row(string(st), stats.CountPct(int(n), apps))
		}
	}
	b.WriteString(status.String())
	b.WriteString("\n")

	prev := stats.NewTable("DCL prevalence", "population", "apps")
	for _, r := range []struct{ label, key string }{
		{"DEX candidates (static pre-filter)", "apps.dex-candidate"},
		{"DEX loaders (intercepted)", "apps.dex-dcl"},
		{"Native candidates (static pre-filter)", "apps.native-candidate"},
		{"Native loaders (intercepted)", "apps.native-dcl"},
		{"Remote code (policy violation)", "apps.remote"},
	} {
		prev.Row(r.label, stats.CountPct(int(s.Counters[r.key]), apps))
	}
	b.WriteString(prev.String())
	b.WriteString("\n")

	if t := s.counterTable("DCL events by loader API", "API", "events", "dcl.api."); t != "" {
		b.WriteString(t)
		b.WriteString("\n")
	}
	if t := s.counterTable("DCL events by provenance", "provenance", "events", "dcl.provenance."); t != "" {
		b.WriteString(t)
		b.WriteString("\n")
	}
	if t := s.counterTable("DCL events by responsible entity", "entity", "events", "dcl.entity."); t != "" {
		b.WriteString(t)
		b.WriteString("\n")
	}

	ent := stats.NewTable("Responsible entity (apps with DCL)", "", "own", "3rd-party", "both")
	ent.Row("DEX",
		s.Counters["apps.dex-entity.own"],
		s.Counters["apps.dex-entity.third-party"],
		s.Counters["apps.dex-entity.both"])
	ent.Row("Native",
		s.Counters["apps.native-entity.own"],
		s.Counters["apps.native-entity.third-party"],
		s.Counters["apps.native-entity.both"])
	b.WriteString(ent.String())
	b.WriteString("\n")

	obf := stats.NewTable("Obfuscation & packers", "technique", "apps")
	for _, r := range []struct{ label, key string }{
		{"Lexical", "obfuscation.lexical"},
		{"Reflection", "obfuscation.reflection"},
		{"Native", "obfuscation.native"},
		{"DEX encryption (packed)", "obfuscation.dex-encryption"},
		{"Anti-decompilation", "obfuscation.anti-decompile"},
	} {
		obf.Row(r.label, stats.CountPct(int(s.Counters[r.key]), apps))
	}
	b.WriteString(obf.String())
	b.WriteString("\n")

	sec := stats.NewTable("Security outcomes", "outcome", "count")
	sec.Row("Apps with malware", stats.CountPct(int(s.Counters["apps.malware"]), apps))
	sec.Row("Malware hits (files)", s.Counters["malware.hits"])
	sec.Row("Apps with risky DCL (vulns)", stats.CountPct(int(s.Counters["apps.vulnerable"]), apps))
	sec.Row("Apps leaking private data", stats.CountPct(int(s.Counters["apps.privacy-leak"]), apps))
	sec.Row("Bouncer approved", s.Counters["verdict.approved"])
	sec.Row("Bouncer rejected", s.Counters["verdict.rejected"])
	b.WriteString(sec.String())

	if t := s.counterTable("Malware by family", "family", "files", "malware.family."); t != "" {
		b.WriteString("\n")
		b.WriteString(t)
	}
	if t := s.counterTable("Vulnerable loads by kind", "kind", "loads", "vuln."); t != "" {
		b.WriteString("\n")
		b.WriteString(t)
	}

	if len(s.TopEntities.Entries) > 0 {
		b.WriteString("\n")
		top := stats.NewTable(
			fmt.Sprintf("Top third-party entities (space-saving, k=%d)", s.TopEntities.K),
			"call site", "loads", "±err")
		for _, e := range s.TopEntities.Entries {
			top.Row(e.Key, e.Count, e.Err)
		}
		b.WriteString(top.String())
	}
	return b.String()
}

// counterTable renders every counter under prefix as a sorted two-column
// table ("" when none exist).
func (s *Snapshot) counterTable(title, keyHeader, valHeader, prefix string) string {
	var keys []string
	for k := range s.Counters {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	t := stats.NewTable(title, keyHeader, valHeader)
	for _, k := range keys {
		t.Row(strings.TrimPrefix(k, prefix), s.Counters[k])
	}
	return t.String()
}

// LatencyReport renders the stage-latency histograms and the slowest
// analyses. Unlike MeasurementReport it reflects wall-clock timings, so
// two runs over the same corpus render different (but same-shaped)
// sections.
func (s *Snapshot) LatencyReport() string {
	var b strings.Builder
	if len(s.Stages) > 0 {
		names := make([]string, 0, len(s.Stages))
		for name := range s.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		t := stats.NewTable("Stage latency (mergeable histograms)",
			"span", "count", "mean", "p50", "p90", "p99", "max")
		for _, name := range names {
			h := s.Stages[name]
			t.Row(name, h.Count, roundDur(h.Mean()), roundDur(h.Quantile(0.50)),
				roundDur(h.Quantile(0.90)), roundDur(h.Quantile(0.99)),
				roundDur(time.Duration(h.MaxNS)))
		}
		b.WriteString(t.String())
	}
	if len(s.SlowestApps.Entries) > 0 {
		if b.Len() > 0 {
			b.WriteString("\n")
		}
		t := stats.NewTable("Slowest analyses", "package", "digest", "total")
		for _, e := range s.SlowestApps.Entries {
			t.Row(e.Package, shortDigest(e.Digest), roundDur(time.Duration(e.NS)))
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// Report renders the full fleet report: the deterministic measurement
// tables followed by the latency section.
func (s *Snapshot) Report() string {
	out := s.MeasurementReport()
	if lat := s.LatencyReport(); lat != "" {
		out += "\n" + lat
	}
	return out
}

func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	if d == "" {
		return "-"
	}
	return d
}

func roundDur(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(time.Nanosecond)
	}
}
