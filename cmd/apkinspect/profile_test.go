package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/profile"
)

// profileServer serves a canned window ring's index as a worker does.
func profileServer(t *testing.T, wins ...*profile.Window) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/profiles", func(w http.ResponseWriter, r *http.Request) {
		metas := make([]profile.Meta, 0, len(wins))
		for i := len(wins) - 1; i >= 0; i-- {
			metas = append(metas, wins[i].Meta())
		}
		json.NewEncoder(w).Encode(metas)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func testWindow(id string, at time.Time, cpuNS int64) *profile.Window {
	return &profile.Window{
		ID: id, Node: "w1", Trigger: profile.TriggerSampler,
		StartAt: at, EndAt: at.Add(250 * time.Millisecond),
		Runtime: profile.RuntimeDelta{CPUNS: cpuNS},
		Pprof:   []byte("\x1f\x8b canned profile"),
	}
}

func TestProfileListCommand(t *testing.T) {
	base := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	oldW := testWindow("w000001", base, 10e6)
	newW := testWindow("w000002", base.Add(time.Minute), 30e6)
	ts := profileServer(t, oldW, newW)

	var out strings.Builder
	if err := runProfile(&out, []string{"list", "-url", ts.URL}); err != nil {
		t.Fatal(err)
	}
	list := out.String()
	for _, want := range []string{"w000001", "w000002", "30ms", "sampler"} {
		if !strings.Contains(list, want) {
			t.Fatalf("list output missing %q:\n%s", want, list)
		}
	}

	// The retired verbs are usage errors, not silent no-ops.
	for _, verb := range []string{"top", "diff"} {
		if err := runProfile(&out, []string{verb, "-url", ts.URL, "w000002"}); err == nil {
			t.Fatalf("profile %s did not error", verb)
		}
	}
}
