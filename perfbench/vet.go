package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/bouncer"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/resultstore"
	"github.com/dydroid/dydroid/internal/service"
	"github.com/dydroid/dydroid/internal/stats"
	"github.com/dydroid/dydroid/internal/telemetry"
	"github.com/dydroid/dydroid/internal/trace"
)

// The daemon configuration dydroidd starts with by default: its
// marketplace (training families, remote-payload network, companion
// apps), fuzz seed and budget, queue depth and result-store LRU size.
const (
	daemonSeed      = 7
	daemonScale     = 0.001
	daemonEvents    = 25
	daemonQueue     = 64
	daemonCacheSize = 512
)

// Polling cadence of a fresh scan's verdict after its 202. Review and
// analysis take about 0.5 ms, under the ~1 ms granularity of a timer
// sleep, so polls go back to back (one loopback round trip apart) behind
// any send that is due: a sleeping poller would measure its own timer.
const pollEvery = 0

// opTimeout fails an operation that has not finished this long after it
// was due, so a hung daemon ends the run instead of stalling it.
const opTimeout = 30 * time.Second

// market is the daemon's start-up marketplace and trained classifier.
type market struct {
	store *corpus.Store
	clf   *droidnative.Classifier
}

func newMarket() (*market, error) {
	st, err := corpus.Generate(corpus.Config{Seed: daemonSeed, Scale: daemonScale})
	if err != nil {
		return nil, err
	}
	clf, err := st.TrainingSet(trainPerFamily)
	if err != nil {
		return nil, err
	}
	return &market{store: st, clf: clf}, nil
}

// daemon is one in-process vetting daemon wired as dydroidd wires it:
// Bouncer review on, a durable result store, an in-memory trace store.
// The profiling recorder is attached but its 30 s cadence sampler is not
// started; its first tick would fall after any timed phase.
type daemon struct {
	svc *service.Server
	reg *metrics.Registry
	rs  *resultstore.Store
	srv *httptest.Server
}

func startDaemon(m *market, dir string, workers int) (*daemon, error) {
	reg := metrics.New()
	var rs *resultstore.Store
	if dir != "" {
		var err error
		if rs, err = resultstore.Open(resultstore.Options{Dir: dir, Version: service.RecordVersion, CacheSize: daemonCacheSize}); err != nil {
			return nil, err
		}
	}
	traces, err := trace.OpenStore(trace.StoreOptions{Metrics: reg})
	if err != nil {
		return nil, err
	}
	journal := events.NewJournal(0)
	svc, err := service.New(service.Config{
		Analyzer: core.NewAnalyzer(core.Options{
			Seed: daemonSeed, MonkeyEvents: daemonEvents, Classifier: m.clf,
			Network: m.store.Network, SetupDevice: m.store.SetupDevice, Metrics: reg,
		}),
		Reviewer:   &bouncer.Reviewer{Classifier: m.clf, Network: m.store.Network, Metrics: reg},
		Store:      rs,
		Workers:    workers,
		QueueDepth: daemonQueue,
		Metrics:    reg,
		Traces:     traces,
		Fleet:      telemetry.New(telemetry.Options{}),
		Journal:    journal,
		Profiles:   profile.New(profile.Options{Journal: journal, Metrics: reg}),
	})
	if err != nil {
		return nil, err
	}
	return &daemon{svc: svc, reg: reg, rs: rs, srv: httptest.NewServer(svc.Handler())}, nil
}

func (d *daemon) close() {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
}

// input is one APK submission.
type input struct {
	data   []byte
	digest string
}

// buildInputs generates n distinct APKs from a marketplace at seed, in a
// seeded random order. Apps whose archive has no signing digest are
// skipped: the daemon rejects them with 400, and the workloads submit
// only inputs on which no operation fails.
func buildInputs(seed int64, n int) ([]input, error) {
	scale := (float64(n)*1.1 + 200) / float64(corpus.Paper().Total)
	st, err := corpus.Generate(corpus.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	apps := st.Apps
	rand.New(rand.NewSource(seed)).Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	seen := make(map[string]bool, n)
	out := make([]input, 0, n)
	for _, app := range apps {
		if len(out) == n {
			break
		}
		data, err := st.BuildAPK(app)
		if err != nil {
			return nil, err
		}
		digest, err := apk.SigningDigest(data)
		if err != nil || seen[digest] {
			continue
		}
		seen[digest] = true
		out = append(out, input{data: data, digest: digest})
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d distinct inputs at seed %d, need %d", len(out), seed, n)
	}
	return out, nil
}

// newClient is the load generator's HTTP client: at most nproc
// connections, matching its at most nproc sending goroutines.
func newClient() *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     numCPU(),
			MaxIdleConnsPerHost: numCPU(),
			DisableCompression:  true,
		},
	}
}

// call performs one request and reads the whole response.
func call(c *http.Client, method, url string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// op is one open-loop operation: a submission and, for fresh scans, the
// polls until its verdict.
type op struct {
	in       int // index into the workload's inputs
	due      time.Time
	sent     time.Time
	accepted time.Time // 202 (or 200) received
	done     time.Time // verdict 200 received, or the failure
	polls    int
	body     []byte
	// err is why the operation failed; wrong marks a failure of an output
	// check, as opposed to a refused or lost request.
	err   string
	wrong bool
}

func (o *op) fail(format string, args ...any) (time.Duration, bool) {
	o.done = time.Now()
	o.err = fmt.Sprintf(format, args...)
	return 0, true
}

// mismatch fails the operation because its output is wrong.
func (o *op) mismatch(format string, args ...any) (time.Duration, bool) {
	o.wrong = true
	return o.fail(format, args...)
}

func (o *op) latency() time.Duration { return o.done.Sub(o.due) }

// phase is one open-loop phase at a fixed offered rate.
type phase struct {
	name  string
	rate  float64
	start time.Time
	ops   []*op
	late  []time.Duration
}

// runPhase offers rate×d operations on a Poisson schedule; pick chooses
// each operation's input and st performs its requests.
func runPhase(name string, rng *rand.Rand, rate float64, d time.Duration, pick func(i int) int, st func(*op) (time.Duration, bool)) *phase {
	n := max(1, int(rate*d.Seconds()))
	due := poissonSchedule(rng, n, rate)
	p := &phase{name: name, rate: rate, start: time.Now().Add(5 * time.Millisecond), ops: make([]*op, n)}
	for i := range p.ops {
		p.ops[i] = &op{in: pick(i), due: p.start.Add(due[i])}
	}
	p.late = openLoop(p.start, due, numCPU(), func(i int) (time.Duration, bool) { return st(p.ops[i]) })
	return p
}

// sloLimit is the p99 latency a phase must stay under to count as met.
// It sits well above the longest stalls of the shared host (up to about
// 100 ms were seen), so a ladder step fails on a growing backlog or a
// slow build, not on one host stall; a step past capacity builds seconds
// of backlog and misses it by far.
const sloLimit = 250 * time.Millisecond

// phaseStats summarizes a phase against sloLimit. A failed operation
// counts as missing the limit.
type phaseStats struct {
	sent, ok, failed int
	p50, p99         float64 // ms
	lateP99          float64 // ms
	achieved         float64 // completed per second
	growing          bool
	meets            bool
}

func (p *phase) stats() phaseStats {
	var s phaseStats
	lat := make([]float64, 0, len(p.ops))
	var last time.Time
	for _, o := range p.ops {
		s.sent++
		if o.err != "" {
			s.failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		s.ok++
		lat = append(lat, float64(o.latency())/float64(time.Millisecond))
		if o.done.After(last) {
			last = o.done
		}
	}
	s.p50, s.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	s.lateP99 = quantile(durationsMS(p.late), 0.99)
	s.achieved = ratio(float64(s.ok), last.Sub(p.start).Seconds())
	// A backlog grows when the last quarter of the phase waits twice as
	// long as the first, and long against the limit (a short burst of slow
	// requests is not a backlog).
	q := len(lat) / 4
	if q > 0 {
		last := median(lat[len(lat)-q:])
		s.growing = last > 2*median(lat[:q]) && last > float64(sloLimit)/float64(time.Millisecond)/4
	}
	s.meets = s.failed == 0 && !s.growing && s.p99 <= float64(sloLimit)/float64(time.Millisecond)
	return s
}

// ladderTable renders the phases and returns the completed rate of the
// highest-rate phase that met the limit (0 when none did).
func ladderTable(title string, phases []*phase) (string, float64) {
	t := stats.NewTable(title, "phase", "rate/s", "sent", "ok", "failed", "p50 ms", "p99 ms", "late p99 ms", "done/s", "meets SLO")
	best := 0.0
	for _, p := range phases {
		s := p.stats()
		t.Row(p.name, p.rate, s.sent, s.ok, s.failed, fmt.Sprintf("%.3f", s.p50), fmt.Sprintf("%.3f", s.p99),
			fmt.Sprintf("%.3f", s.lateP99), fmt.Sprintf("%.1f", s.achieved), s.meets)
		if s.meets {
			best = max(best, s.achieved)
		}
	}
	return t.String() + "\n", best
}

// openLoopPass is the shared skeleton of the two vetting workloads: a
// nominal phase that carries the latency metrics, then a rate ladder that
// finds the highest rate meeting sloLimit.
type openLoopPass struct {
	name    string
	rng     *rand.Rand
	nominal float64
	ladder  []float64 // multiples of nominal
	pick    func(i int) int
	step    func(*op) (time.Duration, bool)
	// afterNominal runs between the nominal phase and the ladder, outside
	// any timed window (the traced pass collects span trees there).
	afterNominal func(nom *phase)
}

// nominalShare is the part of the measured duration spent at the nominal
// rate; the ladder steps share the rest equally.
const nominalShare = 0.75

func (l *openLoopPass) run(p *pass, d time.Duration) (nom *phase, all []*phase) {
	heap := startHeapPeak()
	u := readUsage()
	nom = runPhase("nominal", l.rng, l.nominal, time.Duration(float64(d)*nominalShare), l.pick, l.step)
	use := since(u)
	peak := heap.mb()
	if l.afterNominal != nil {
		l.afterNominal(nom)
	}
	all = []*phase{nom}
	if nom.stats().meets {
		stepD := time.Duration(float64(d) * (1 - nominalShare) / float64(len(l.ladder)))
		for _, m := range l.ladder {
			ph := runPhase(fmt.Sprintf("ladder x%g", m), l.rng, l.nominal*m, stepD, l.pick, l.step)
			all = append(all, ph)
			if !ph.stats().meets {
				break
			}
		}
	}
	report, best := ladderTable(fmt.Sprintf("%s phases (open loop, Poisson arrivals, p99 limit %s)", l.name, sloLimit), all)
	p.report += report

	ns := nom.stats()
	var completed int
	var last time.Time
	for _, ph := range all {
		for _, o := range ph.ops {
			p.attempted++
			if o.err != "" {
				p.failed++
				continue
			}
			completed++
			if o.done.After(last) {
				last = o.done
			}
		}
	}
	p.endToEnd = map[string]float64{
		"apps_per_s":      ratio(float64(completed), last.Sub(nom.start).Seconds()),
		"cpu_ms_per_op":   float64(use.cpu) / float64(time.Millisecond) / float64(max(ns.ok, 1)),
		"allocs_per_op":   float64(use.mallocs) / float64(max(ns.ok, 1)),
		"peak_heap_mb":    peak,
		"latency_p50_ms":  ns.p50,
		"max_rate_at_slo": best,
	}
	p.layers["latency_p99_ms"] = ns.p99
	p.layers["loadgen.late_ms.p99"] = ns.lateP99
	p.layers["runtime.gc_cpu_share"] = use.gcShare
	return nom, all
}

// checkFailures turns operations whose output failed a check into
// output-check messages (one per distinct reason, so a systematic failure
// does not flood the log). Refused and lost requests count as failed but
// are not output errors.
func checkFailures(p *pass, name string, phases []*phase) {
	seen := map[string]bool{}
	for _, ph := range phases {
		for _, o := range ph.ops {
			if o.wrong && !seen[o.err] {
				seen[o.err] = true
				p.checkErrs = append(p.checkErrs, name+": "+o.err)
			}
		}
	}
}

// checkVerdict verifies a 200 verdict body names the submitted digest and
// is not an analysis-error record.
func checkVerdict(o *op, want string) (time.Duration, bool) {
	var rec service.Record
	err := json.Unmarshal(o.body, &rec)
	switch {
	case err != nil:
		return o.mismatch("verdict is not JSON: %v", err)
	case rec.Digest != want:
		return o.mismatch("verdict digest %.12s, submitted %.12s", rec.Digest, want)
	case rec.Status == string(core.StatusAnalysisError):
		return o.mismatch("analysis-error record for %.12s", want)
	}
	return 0, true
}

// fetchTrace reads a digest's span tree from a daemon or coordinator.
func fetchTrace(c *http.Client, base, digest string) (*trace.Trace, error) {
	code, body, _, err := call(c, http.MethodGet, base+"/v1/trace/"+digest, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/trace/%.12s: %d", digest, code)
	}
	var t trace.Trace
	if err := json.Unmarshal(body, &t); err != nil {
		return nil, err
	}
	if t.Root == nil {
		return nil, fmt.Errorf("trace of %.12s has no root", digest)
	}
	return &t, nil
}

// spanMS is a span's duration in milliseconds (0 for a missing span).
func spanMS(s *trace.Span) float64 {
	if s == nil {
		return 0
	}
	return float64(s.Duration()) / float64(time.Millisecond)
}

// p50p99 stores the median and 99th percentile of xs under name.p50 and
// name.p99.
func p50p99(layers map[string]float64, name string, xs []float64) {
	layers[name+".p50"] = quantile(xs, 0.5)
	layers[name+".p99"] = quantile(xs, 0.99)
}

// lastDistinct returns the newest successful operation of each of the
// last n distinct inputs of a phase, newest first.
func lastDistinct(ph *phase, n int) []*op {
	seen := map[int]bool{}
	var out []*op
	for i := len(ph.ops) - 1; i >= 0 && len(out) < n; i-- {
		o := ph.ops[i]
		if o.err == "" && !seen[o.in] {
			seen[o.in] = true
			out = append(out, o)
		}
	}
	return out
}
