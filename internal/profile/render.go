package profile

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/dydroid/dydroid/internal/stats"
)

// RenderIndex writes the profile index as an aligned table, the
// `apkinspect profile list` view.
func RenderIndex(w io.Writer, metas []Meta) {
	t := stats.NewTable("profile windows",
		"ID", "NODE", "TRIGGER", "DIGEST", "START", "DUR", "SAMPLES", "CPU", "TOP FUNCTION")
	for _, m := range metas {
		digest := m.Digest
		if len(digest) > 12 {
			digest = digest[:12]
		}
		t.Row(m.ID, m.Node, m.Trigger, digest,
			m.StartAt.UTC().Format("15:04:05.000"),
			time.Duration(m.DurationNS).Round(time.Millisecond),
			m.Samples, time.Duration(m.CPUNS).Round(time.Microsecond), m.TopFunc)
	}
	fmt.Fprint(w, t.String())
}

// RenderTop writes one window's top-functions table with its capture
// context, then its CPU by pipeline stage — the `apkinspect profile top`
// view and the CI artifact.
func RenderTop(w io.Writer, win *Window, n int) {
	fmt.Fprintf(w, "window %s  node=%s  trigger=%s", win.ID, win.Node, win.Trigger)
	if win.Digest != "" {
		fmt.Fprintf(w, "  digest=%s", win.Digest)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "captured %s  wall=%s  cpu=%s  alloc=%s/%d objs  goroutines=%d\n",
		win.StartAt.UTC().Format(time.RFC3339),
		win.EndAt.Sub(win.StartAt).Round(time.Millisecond),
		time.Duration(win.Runtime.CPUNS).Round(time.Microsecond),
		byteCount(win.Runtime.AllocBytes), win.Runtime.AllocObjects, win.Runtime.Goroutines)
	if win.Err != "" {
		fmt.Fprintf(w, "capture error: %s\n", win.Err)
	}
	if win.Summary == nil {
		return
	}
	s := win.Summary
	fmt.Fprintf(w, "%d samples, %s total CPU in profile\n\n", s.Samples, time.Duration(s.TotalNS))
	t := stats.NewTable("top functions by flat self-time",
		"FUNCTION", "FLAT", "FLAT%", "CUM", "CUM%")
	top := s.Top
	if n > 0 && len(top) > n {
		top = top[:n]
	}
	for _, fc := range top {
		t.Row(fc.Func,
			time.Duration(fc.FlatNS), pctOf(fc.FlatNS, s.TotalNS),
			time.Duration(fc.CumNS), pctOf(fc.CumNS, s.TotalNS))
	}
	fmt.Fprint(w, t.String())
	if len(s.StageNS) == 0 {
		return
	}
	stages := make([]string, 0, len(s.StageNS))
	for name := range s.StageNS {
		stages = append(stages, name)
	}
	sort.Slice(stages, func(i, j int) bool {
		a, b := s.StageNS[stages[i]], s.StageNS[stages[j]]
		if a != b {
			return a > b
		}
		return stages[i] < stages[j]
	})
	t = stats.NewTable("cpu by pipeline stage (pprof label stage)", "STAGE", "CPU", "CPU%")
	for _, name := range stages {
		t.Row(name, time.Duration(s.StageNS[name]), pctOf(s.StageNS[name], s.TotalNS))
	}
	fmt.Fprint(w, "\n", t.String())
}

// RenderDiff writes the regression view between two windows: per
// function, flat self-time in the old and new window and the delta,
// sorted by absolute delta. This is how a "why did p99 double" question
// gets answered from two summaries alone.
func RenderDiff(w io.Writer, oldW, newW *Window, n int) {
	fmt.Fprintf(w, "old: window %s node=%s trigger=%s total=%s\n",
		oldW.ID, oldW.Node, oldW.Trigger, time.Duration(sumTotal(oldW)))
	fmt.Fprintf(w, "new: window %s node=%s trigger=%s total=%s\n\n",
		newW.ID, newW.Node, newW.Trigger, time.Duration(sumTotal(newW)))

	type row struct {
		fn           string
		oldNS, newNS int64
	}
	byFn := map[string]*row{}
	if oldW.Summary != nil {
		for _, fc := range oldW.Summary.Top {
			byFn[fc.Func] = &row{fn: fc.Func, oldNS: fc.FlatNS}
		}
	}
	if newW.Summary != nil {
		for _, fc := range newW.Summary.Top {
			r := byFn[fc.Func]
			if r == nil {
				r = &row{fn: fc.Func}
				byFn[fc.Func] = r
			}
			r.newNS = fc.FlatNS
		}
	}
	rows := make([]*row, 0, len(byFn))
	for _, r := range byFn {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		di, dj := absInt64(rows[i].newNS-rows[i].oldNS), absInt64(rows[j].newNS-rows[j].oldNS)
		if di != dj {
			return di > dj
		}
		return rows[i].fn < rows[j].fn
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	t := stats.NewTable("flat self-time regression (new - old)",
		"FUNCTION", "OLD FLAT", "NEW FLAT", "DELTA", "DELTA%")
	for _, r := range rows {
		d := r.newNS - r.oldNS
		sign := ""
		if d > 0 {
			sign = "+"
		}
		t.Row(r.fn, time.Duration(r.oldNS), time.Duration(r.newNS),
			sign+time.Duration(d).String(), deltaPct(r.oldNS, r.newNS))
	}
	fmt.Fprint(w, t.String())
}

func sumTotal(w *Window) int64 {
	if w.Summary == nil {
		return 0
	}
	return w.Summary.TotalNS
}

func pctOf(part, total int64) string {
	if total == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

func deltaPct(oldV, newV int64) string {
	if oldV == 0 {
		if newV == 0 {
			return "0.0%"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(newV-oldV)/float64(oldV))
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// byteCount renders a byte count with a binary unit suffix.
func byteCount(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
