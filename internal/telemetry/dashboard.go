package telemetry

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/dydroid/dydroid/internal/events"
)

// DashboardData is everything the HTML dashboard renders: the fleet
// snapshot, the host's gauge levels (runtime sampler, queue depth, trace
// store occupancy), and identity lines for the header. It is
// deliberately plain data so the daemon handler can assemble it without
// telemetry depending on the service layer.
type DashboardData struct {
	// Title heads the page (e.g. "dydroidd fleet").
	Title string
	// Refresh is the meta-refresh interval in seconds (0 disables).
	Refresh int
	// Header lines identify the build: version, record/snapshot versions.
	Header []KV
	// Snap is the fleet aggregate to render.
	Snap *Snapshot
	// Gauges are the registry's instantaneous levels.
	Gauges map[string]int64
	// Profile is the optional continuous-profiling headline (windows
	// retained, captures, last window), rendered as stat tiles.
	Profile []KV
	// Now stamps the rendering time.
	Now time.Time
}

// KV is one labelled header value.
type KV struct{ Key, Value string }

// barRow is one labelled count with a precomputed meter width.
type barRow struct {
	Label string
	Value string
	// Pct is the meter width as a percentage of the row maximum.
	Pct float64
}

// statTile is one headline number.
type statTile struct {
	Label string
	Value string
	// Alert marks the tile as a problem indicator when its value is
	// non-zero (rendered with the status color plus the label — never
	// color alone).
	Alert bool
}

type stageRow struct {
	Name                     string
	Count                    int64
	Mean, P50, P90, P99, Max string
}

// sloRow is one objective's rendered burn-rate line.
type sloRow struct {
	Name       string
	Target     string
	Fast, Slow string
	Budget     string
	Alert      string
	// Firing marks a non-ok alert for the status color.
	Firing bool
}

type dashView struct {
	Title   string
	Refresh int
	Header  []KV
	Now     string

	Tiles    []statTile
	SLO      []sloRow
	Status   []barRow
	Prev     []barRow
	Entities []barRow
	Stages   []stageRow
	Slowest  []SlowApp
	Recent   []RecentDCL
	Errors   []RecentError
	Timeline []events.Event
	Gauges   []KV

	SlowDur func(int64) string
}

// RenderDashboard writes the self-refreshing HTML fleet dashboard. The
// page is a single server-rendered document: stat tiles, aggregate
// tables with inline single-hue meters, and the recent-event rings — no
// scripts, no external assets, readable in light and dark mode.
func RenderDashboard(w io.Writer, d DashboardData) error {
	s := d.Snap
	if s == nil {
		s = NewSnapshot(0, 0, 0)
	}
	v := &dashView{
		Title:    d.Title,
		Refresh:  d.Refresh,
		Header:   d.Header,
		Now:      d.Now.UTC().Format(time.RFC3339),
		Slowest:  s.SlowestApps.Entries,
		Recent:   s.RecentDCL.Entries,
		Errors:   s.RecentErrors.Entries,
		Timeline: s.Events.Entries,
	}
	if v.Title == "" {
		v.Title = "fleet observatory"
	}

	v.Tiles = []statTile{
		{Label: "apps analyzed", Value: fmt.Sprintf("%d", s.Apps)},
		{Label: "shards", Value: fmt.Sprintf("%d", s.Shards)},
		{Label: "analysis errors", Value: fmt.Sprintf("%d", s.Errors), Alert: s.Errors > 0},
		{Label: "apps with DCL", Value: fmt.Sprintf("%d", s.Counters["apps.dex-dcl"]+s.Counters["apps.native-dcl"])},
		{Label: "remote code apps", Value: fmt.Sprintf("%d", s.Counters["apps.remote"])},
		{Label: "malware apps", Value: fmt.Sprintf("%d", s.Counters["apps.malware"]), Alert: s.Counters["apps.malware"] > 0},
	}
	for _, r := range s.SLO.Reports(d.Now) {
		row := sloRow{
			Name:   r.Name,
			Target: fmt.Sprintf("%.4g%%", 100*r.Target),
			Fast:   fmt.Sprintf("%.2f×", r.Fast.BurnRate),
			Slow:   fmt.Sprintf("%.2f×", r.Slow.BurnRate),
			Budget: fmt.Sprintf("%.1f%%", 100*r.BudgetUsed),
			Alert:  r.Alert,
			Firing: r.Alert != AlertOK,
		}
		v.SLO = append(v.SLO, row)
		v.Tiles = append(v.Tiles, statTile{
			Label: "SLO " + r.Name, Value: row.Alert, Alert: row.Firing,
		})
	}
	if n, ok := d.Gauges["runtime.goroutines"]; ok {
		v.Tiles = append(v.Tiles, statTile{Label: "goroutines", Value: fmt.Sprintf("%d", n)})
	}
	if n, ok := d.Gauges["runtime.heap_alloc_bytes"]; ok {
		v.Tiles = append(v.Tiles, statTile{Label: "heap", Value: fmtBytes(n)})
	}
	for _, kv := range d.Profile {
		v.Tiles = append(v.Tiles, statTile{Label: kv.Key, Value: kv.Value})
	}

	v.Status = counterBars(s.Counters, "status.", nil)
	v.Prev = []barRow{}
	prevKeys := []struct{ label, key string }{
		{"DEX candidates", "apps.dex-candidate"},
		{"DEX loaders", "apps.dex-dcl"},
		{"native candidates", "apps.native-candidate"},
		{"native loaders", "apps.native-dcl"},
		{"remote code", "apps.remote"},
		{"packed (DEX encryption)", "obfuscation.dex-encryption"},
	}
	var prevMax int64
	for _, pk := range prevKeys {
		if s.Counters[pk.key] > prevMax {
			prevMax = s.Counters[pk.key]
		}
	}
	for _, pk := range prevKeys {
		v.Prev = append(v.Prev, makeBar(pk.label, s.Counters[pk.key], prevMax))
	}
	var entMax int64
	for _, e := range s.TopEntities.Entries {
		if e.Count > entMax {
			entMax = e.Count
		}
	}
	for _, e := range s.TopEntities.Entries {
		v.Entities = append(v.Entities, makeBar(e.Key, e.Count, entMax))
	}

	names := make([]string, 0, len(s.Stages))
	for name := range s.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Stages[name]
		v.Stages = append(v.Stages, stageRow{
			Name: name, Count: h.Count,
			Mean: roundDur(h.Mean()).String(),
			P50:  roundDur(h.Quantile(0.50)).String(),
			P90:  roundDur(h.Quantile(0.90)).String(),
			P99:  roundDur(h.Quantile(0.99)).String(),
			Max:  roundDur(time.Duration(h.MaxNS)).String(),
		})
	}

	for _, name := range sortedGaugeKeys(d.Gauges) {
		v.Gauges = append(v.Gauges, KV{Key: name, Value: fmt.Sprintf("%d", d.Gauges[name])})
	}
	v.SlowDur = func(ns int64) string { return roundDur(time.Duration(ns)).String() }

	return dashTmpl.Execute(w, v)
}

func makeBar(label string, n, max int64) barRow {
	r := barRow{Label: label, Value: fmt.Sprintf("%d", n)}
	if max > 0 {
		r.Pct = 100 * float64(n) / float64(max)
	}
	return r
}

// counterBars renders every counter under prefix as meter rows, sorted
// by key (or in keyOrder when given).
func counterBars(c map[string]int64, prefix string, keyOrder []string) []barRow {
	if keyOrder == nil {
		for k := range c {
			if strings.HasPrefix(k, prefix) {
				keyOrder = append(keyOrder, strings.TrimPrefix(k, prefix))
			}
		}
		sort.Strings(keyOrder)
	}
	var max int64
	for _, k := range keyOrder {
		if c[prefix+k] > max {
			max = c[prefix+k]
		}
	}
	rows := make([]barRow, 0, len(keyOrder))
	for _, k := range keyOrder {
		rows = append(rows, makeBar(k, c[prefix+k], max))
	}
	return rows
}

func sortedGaugeKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

var dashTmpl = template.Must(template.New("dash").Funcs(template.FuncMap{
	"shortDigest": shortDigest,
	"rfc3339": func(t time.Time) string {
		if t.IsZero() {
			return "-"
		}
		return t.UTC().Format(time.RFC3339)
	},
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
{{if gt .Refresh 0}}<meta http-equiv="refresh" content="{{.Refresh}}">{{end}}
<title>{{.Title}}</title>
<style>
  :root {
    color-scheme: light dark;
    --surface-1: #fcfcfb;
    --surface-2: #f1f0ee;
    --text-primary: #0b0b0b;
    --text-secondary: #52514e;
    --border: #dddcd8;
    --series-1: #2a78d6;
    --status-serious: #b3261e;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      --surface-1: #1a1a19;
      --surface-2: #242423;
      --text-primary: #ffffff;
      --text-secondary: #c3c2b7;
      --border: #3a3a38;
      --series-1: #3987e5;
      --status-serious: #e66767;
    }
  }
  body {
    margin: 0; padding: 24px; background: var(--surface-1);
    color: var(--text-primary);
    font: 14px/1.45 ui-sans-serif, system-ui, sans-serif;
  }
  header h1 { font-size: 20px; margin: 0 0 4px; }
  header .meta { color: var(--text-secondary); font-size: 12px; }
  header .meta span { margin-right: 16px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 20px 0; }
  .tile {
    background: var(--surface-2); border: 1px solid var(--border);
    border-radius: 8px; padding: 10px 16px; min-width: 110px;
  }
  .tile .v { font-size: 22px; font-weight: 600; font-variant-numeric: tabular-nums; }
  .tile .l { color: var(--text-secondary); font-size: 12px; }
  .tile.alert .v::after { content: " ⚠"; color: var(--status-serious); font-size: 14px; }
  section { margin: 24px 0; }
  h2 { font-size: 14px; font-weight: 600; margin: 0 0 8px; color: var(--text-primary); }
  table { border-collapse: collapse; font-variant-numeric: tabular-nums; }
  th, td { text-align: left; padding: 3px 14px 3px 0; font-size: 13px; }
  th { color: var(--text-secondary); font-weight: 500; border-bottom: 1px solid var(--border); }
  td.num { text-align: right; }
  .meter { width: 180px; }
  .meter div {
    height: 10px; border-radius: 0 4px 4px 0;
    background: var(--series-1); min-width: 1px;
  }
  .err { color: var(--status-serious); }
  .dim { color: var(--text-secondary); }
  footer { color: var(--text-secondary); font-size: 12px; margin-top: 32px; }
</style>
</head>
<body>
<header>
  <h1>{{.Title}}</h1>
  <div class="meta">
    {{range .Header}}<span>{{.Key}}: {{.Value}}</span>{{end}}
    <span>rendered: {{.Now}}</span>
    {{if gt .Refresh 0}}<span>auto-refresh: {{.Refresh}}s</span>{{end}}
  </div>
</header>

<div class="tiles">
  {{range .Tiles}}<div class="tile{{if .Alert}} alert{{end}}"><div class="v">{{.Value}}</div><div class="l">{{.Label}}</div></div>{{end}}
</div>

{{if .SLO}}<section>
<h2>Service objectives</h2>
<table>
<tr><th>objective</th><th>target</th><th>burn 1h</th><th>burn 6h</th><th>budget used</th><th>alert</th></tr>
{{range .SLO}}<tr><td>{{.Name}}</td><td class="num">{{.Target}}</td><td class="num">{{.Fast}}</td><td class="num">{{.Slow}}</td><td class="num">{{.Budget}}</td><td{{if .Firing}} class="err"{{end}}>{{.Alert}}</td></tr>
{{end}}</table>
</section>{{end}}

{{if .Timeline}}<section>
<h2>Ops timeline</h2>
<table>
<tr><th>time</th><th>event</th><th>node</th><th>digest</th><th>detail</th></tr>
{{range .Timeline}}<tr><td class="dim">{{rfc3339 .Time}}</td><td>{{.Type}}</td><td>{{.Node}}</td><td class="dim">{{shortDigest .Digest}}</td><td>{{.Detail}}</td></tr>
{{end}}</table>
</section>{{end}}

{{if .Status}}<section>
<h2>Apps by status</h2>
<table>
<tr><th>status</th><th>apps</th><th></th></tr>
{{range .Status}}<tr><td>{{.Label}}</td><td class="num">{{.Value}}</td><td class="meter"><div style="width:{{printf "%.1f" .Pct}}%"></div></td></tr>
{{end}}</table>
</section>{{end}}

<section>
<h2>DCL prevalence</h2>
<table>
<tr><th>population</th><th>apps</th><th></th></tr>
{{range .Prev}}<tr><td>{{.Label}}</td><td class="num">{{.Value}}</td><td class="meter"><div style="width:{{printf "%.1f" .Pct}}%"></div></td></tr>
{{end}}</table>
</section>

{{if .Entities}}<section>
<h2>Top third-party entities</h2>
<table>
<tr><th>call site</th><th>loads</th><th></th></tr>
{{range .Entities}}<tr><td>{{.Label}}</td><td class="num">{{.Value}}</td><td class="meter"><div style="width:{{printf "%.1f" .Pct}}%"></div></td></tr>
{{end}}</table>
</section>{{end}}

{{if .Stages}}<section>
<h2>Stage latency</h2>
<table>
<tr><th>span</th><th>count</th><th>mean</th><th>p50</th><th>p90</th><th>p99</th><th>max</th></tr>
{{range .Stages}}<tr><td>{{.Name}}</td><td class="num">{{.Count}}</td><td class="num">{{.Mean}}</td><td class="num">{{.P50}}</td><td class="num">{{.P90}}</td><td class="num">{{.P99}}</td><td class="num">{{.Max}}</td></tr>
{{end}}</table>
</section>{{end}}

{{if .Slowest}}<section>
<h2>Slowest analyses</h2>
<table>
<tr><th>package</th><th>digest</th><th>total</th></tr>
{{range .Slowest}}<tr><td>{{.Package}}</td><td class="dim">{{shortDigest .Digest}}</td><td class="num">{{call $.SlowDur .NS}}</td></tr>
{{end}}</table>
</section>{{end}}

{{if .Recent}}<section>
<h2>Recent DCL events</h2>
<table>
<tr><th>time</th><th>package</th><th>kind</th><th>API</th><th>path</th><th>entity</th><th>provenance</th></tr>
{{range .Recent}}<tr><td class="dim">{{rfc3339 .Time}}</td><td>{{.Package}}</td><td>{{.Kind}}</td><td>{{.API}}</td><td class="dim">{{.Path}}</td><td>{{.Entity}}</td><td>{{.Provenance}}{{if .SourceURL}} ({{.SourceURL}}){{end}}</td></tr>
{{end}}</table>
</section>{{end}}

{{if .Errors}}<section>
<h2>Recent analysis errors</h2>
<table>
<tr><th>time</th><th>package</th><th>error</th></tr>
{{range .Errors}}<tr><td class="dim">{{rfc3339 .Time}}</td><td>{{.Package}}</td><td class="err">{{.Err}}</td></tr>
{{end}}</table>
</section>{{end}}

{{if .Gauges}}<section>
<h2>Runtime &amp; stores</h2>
<table>
<tr><th>gauge</th><th>value</th></tr>
{{range .Gauges}}<tr><td>{{.Key}}</td><td class="num">{{.Value}}</td></tr>
{{end}}</table>
</section>{{end}}

<footer>dydroid fleet observatory — snapshot also served as JSON at /v1/fleet</footer>
</body>
</html>
`))
