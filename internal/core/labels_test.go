package core

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/android"
)

// goroutineLabels returns the calling goroutine's pprof labels as the
// debug=1 goroutine profile prints them, "" when it carries none.
func goroutineLabels(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "core.goroutineLabels") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if labels, ok := strings.CutPrefix(line, "# labels: "); ok {
				return labels
			}
		}
		return ""
	}
	t.Fatal("calling goroutine missing from the goroutine profile")
	return ""
}

// TestStageLabels: the ctx each stage returns carries the pprof label
// stage=<span name>, the goroutine runs under it, and ending a nested
// stage hands the goroutine back to the enclosing stage's labels.
func TestStageLabels(t *testing.T) {
	an := NewAnalyzer(Options{Seed: 1})
	base := pprof.WithLabels(context.Background(), pprof.Labels("worker", "w1"))
	pprof.SetGoroutineLabels(base)
	defer pprof.SetGoroutineLabels(context.Background())

	open := func(ctx context.Context, name string) (context.Context, stage) {
		t.Helper()
		ctx, st := an.startStage(ctx, name, "")
		if got, _ := pprof.Label(ctx, "stage"); got != name {
			t.Fatalf("ctx of stage %q carries stage=%q", name, got)
		}
		if got, _ := pprof.Label(ctx, "worker"); got != "w1" {
			t.Fatalf("ctx of stage %q dropped the caller's worker label", name)
		}
		return ctx, st
	}
	running := func(want string) {
		t.Helper()
		if got := goroutineLabels(t); got != want {
			t.Fatalf("goroutine labels = %s, want %s", got, want)
		}
	}

	actx, analyze := open(base, "analyze")
	running(`{"stage":"analyze", "worker":"w1"}`)
	dctx, dynamic := open(actx, "dynamic")
	_, interception := open(dctx, "interception")
	running(`{"stage":"interception", "worker":"w1"}`)
	interception.end(nil)
	running(`{"stage":"dynamic", "worker":"w1"}`)
	dynamic.end(nil)
	running(`{"stage":"analyze", "worker":"w1"}`)
	_, static := open(actx, "static")
	static.end(nil)
	analyze.end(nil)
	running(`{"worker":"w1"}`)
}

// TestPipelineRunsUnderStageLabels: the real pipeline provisions the
// device inside the labelled dynamic (or replay) stage, and an analysis
// leaves the caller's goroutine unlabelled as it found it.
func TestPipelineRunsUnderStageLabels(t *testing.T) {
	var during []string
	an := NewAnalyzer(Options{Seed: 1, SetupDevice: func(*android.Device) error {
		during = append(during, goroutineLabels(t))
		return nil
	}})
	payload := payloadWithLeak(t, "com.google.ads.dynamic.AdCore")
	res, err := an.AnalyzeAPK(adSDKApp(t, "com.fun.game", payload))
	if err != nil {
		t.Fatal(err)
	}
	if got := goroutineLabels(t); got != "" {
		t.Fatalf("labels left on the caller after AnalyzeAPK: %s", got)
	}
	if _, err := an.ReplayPreparedContext(context.Background(), res.Prepared, ConfigLocationOff, time.Time{}); err != nil {
		t.Fatal(err)
	}
	want := []string{`{"stage":"dynamic"}`, `{"stage":"replay"}`}
	if strings.Join(during, " ") != strings.Join(want, " ") {
		t.Fatalf("device set up under labels %v, want %v", during, want)
	}
	if got := goroutineLabels(t); got != "" {
		t.Fatalf("labels left on the caller after replay: %s", got)
	}
}
