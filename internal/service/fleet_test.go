package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/telemetry"
)

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, b.Bytes()
}

// TestFleetEndpoint runs a real analysis and checks the aggregate lands
// in the /v1/fleet snapshot.
func TestFleetEndpoint(t *testing.T) {
	reg := metrics.New()
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 4, Metrics: reg}, nil)

	apkBytes := tinyAPK(t, "com.fleet.app")
	resp, body := postScan(t, ts, apkBytes)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan: %d %s", resp.StatusCode, body)
	}
	var sr scanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	pollResult(t, ts, sr.Digest)

	resp, body = getBody(t, ts.URL+"/v1/fleet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet: %d %s", resp.StatusCode, body)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != telemetry.SnapshotVersion {
		t.Fatalf("snapshot version = %d", snap.Version)
	}
	if snap.Apps != 1 {
		t.Fatalf("fleet apps = %d, want 1", snap.Apps)
	}
	if snap.Stages["scan"] == nil || snap.Stages["scan"].Count != 1 {
		t.Fatalf("scan stage missing from fleet stages: %+v", snap.Stages)
	}
	// The slowest-analyses table names the scanned package, in the
	// snapshot and in the report `apkinspect fleet merge` renders.
	if e := snap.SlowestApps.Entries; len(e) != 1 || e[0].Package != "com.fleet.app" || e[0].Digest != sr.Digest {
		t.Fatalf("slowest apps = %+v, want com.fleet.app", e)
	}
	if report := snap.LatencyReport(); !strings.Contains(report, "com.fleet.app") {
		t.Fatalf("latency report missing the scanned package:\n%s", report)
	}
}

// TestMetriczPromSLOGauges: after one scan the Prometheus exposition
// carries every SLO burn-rate gauge for both default objectives.
func TestMetriczPromSLOGauges(t *testing.T) {
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 4, Metrics: metrics.New()}, nil)
	_, body := postScan(t, ts, tinyAPK(t, "com.slo.app"))
	var sr scanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	pollResult(t, ts, sr.Digest)

	resp, body := getBody(t, ts.URL+"/v1/metricz?format=prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz: %d %s", resp.StatusCode, body)
	}
	prom := string(body)
	for _, gauge := range []string{
		"dydroid_slo_burn_rate_fast", "dydroid_slo_burn_rate_slow",
		"dydroid_slo_error_budget_used", "dydroid_slo_alert_firing",
	} {
		if !strings.Contains(prom, "# TYPE "+gauge+" gauge\n") {
			t.Fatalf("prom missing TYPE line for %s:\n%s", gauge, prom)
		}
		for _, objective := range []string{"scan-availability", "analyze-latency-p99"} {
			if want := gauge + `{objective="` + objective + `"} `; !strings.Contains(prom, want) {
				t.Fatalf("prom missing %s:\n%s", want, prom)
			}
		}
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 1}, nil)
	resp, body := getBody(t, ts.URL+"/v1/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version: %d", resp.StatusCode)
	}
	var v versionResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.RecordVersion != RecordVersion {
		t.Fatalf("record version = %d", v.RecordVersion)
	}
	if v.SnapshotVersion != telemetry.SnapshotVersion {
		t.Fatalf("snapshot version = %d", v.SnapshotVersion)
	}
	if v.GoVersion == "" {
		t.Fatal("go version missing from build info")
	}
}

// syncWriter serializes concurrent log writes and snapshot reads.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestSlowWatchdog arms an immediate deadline so every analysis trips the
// watchdog: the slow counter moves and the completion log carries the
// rendered span tree.
func TestSlowWatchdog(t *testing.T) {
	reg := metrics.New()
	logw := &syncWriter{}
	_, ts := newStubServer(t, Config{
		Workers: 1, QueueDepth: 4, Metrics: reg,
		SlowDeadline: time.Nanosecond,
		Logger:       slog.New(slog.NewJSONHandler(logw, nil)),
	}, nil)

	_, body := postScan(t, ts, tinyAPK(t, "com.slow.app"))
	var sr scanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	pollResult(t, ts, sr.Digest)

	// The deadline callback runs in its own goroutine and may still be in
	// flight when the verdict lands — wait for the counter to move.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("service.slow.analyses") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("slow counter = %d; logs:\n%s", reg.Counter("service.slow.analyses"), logw.String())
		}
		time.Sleep(time.Millisecond)
	}
	logs := logw.String()
	if !strings.Contains(logs, "slow analysis completed") {
		t.Fatalf("no watchdog completion line in logs:\n%s", logs)
	}
	if !strings.Contains(logs, "scan") || !strings.Contains(logs, sr.Digest) {
		t.Fatalf("watchdog line missing span tree or digest:\n%s", logs)
	}
}
