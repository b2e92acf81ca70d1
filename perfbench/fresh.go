package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/stats"
	"github.com/dydroid/dydroid/internal/trace"
)

// vet-fresh load: a nominal rate well inside the daemon's capacity (3,240
// samples in the nominal phase of a 30 s run), then a ladder that a
// healthy build sustains without refusals. Every submission is a
// distinct APK, so each one runs review and the full pipeline.
const (
	freshNominal = 180.0
	// freshInputSeed separates the uploads' marketplace from the one
	// batch-market measures at the same --seed.
	freshInputSeed = 1_000_003
	// resubmitChecks is how many verdicts per pass are resubmitted to
	// check the cached answer is byte-identical.
	resubmitChecks = 32
	// traceSample bounds the span trees fetched per traced pass; the
	// daemon's trace store keeps its newest 512.
	traceSample = 500
)

var freshLadder = []float64{1.5, 2}

type freshBench struct {
	d      *daemon
	client *http.Client
	rng    *rand.Rand
	inputs []input
	next   int // first input not yet submitted
}

func setupFresh(e *env) (bench, error) {
	m, err := newMarket()
	if err != nil {
		return nil, err
	}
	inputs, err := buildInputs(e.seed+freshInputSeed, freshInputs(e.d))
	if err != nil {
		return nil, err
	}
	// Verdicts stay in memory, dydroidd's default without -store: the
	// durable store's fsync'd writes made latency follow the host disk
	// (finalize 1.5–5 ms per scan, 37–45% run-to-run spread in latency).
	// vet-resubmit exercises the durable store's read side.
	d, err := startDaemon(m, "", numCPU())
	if err != nil {
		return nil, err
	}
	return &freshBench{d: d, client: newClient(), rng: rand.New(rand.NewSource(e.seed)), inputs: inputs}, nil
}

func (b *freshBench) close() { b.d.close() }

// freshInputs is how many distinct APKs a pass of duration d submits, at
// most: the nominal phase plus every ladder step.
func freshInputs(d time.Duration) int {
	perSecond := freshNominal * (nominalShare + (1-nominalShare)*sum(freshLadder)/float64(len(freshLadder)))
	return int(perSecond*d.Seconds()) + len(freshLadder) + 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// step submits a fresh APK, then polls its verdict until 200.
func (b *freshBench) step(o *op) (time.Duration, bool) {
	in := &b.inputs[o.in]
	if o.accepted.IsZero() {
		o.sent = time.Now()
		code, body, _, err := call(b.client, http.MethodPost, b.d.srv.URL+"/v1/scan", in.data)
		o.accepted = time.Now()
		switch {
		case err != nil:
			return o.fail("POST /v1/scan: %v", err)
		case code == http.StatusAccepted:
			return pollEvery, false
		case code == http.StatusOK:
			o.body, o.done = body, o.accepted
			return checkVerdict(o, in.digest)
		default:
			return o.fail("POST /v1/scan: %d", code)
		}
	}
	if time.Since(o.due) > opTimeout {
		return o.fail("no verdict after %s", opTimeout)
	}
	o.polls++
	code, body, _, err := call(b.client, http.MethodGet, b.d.srv.URL+"/v1/result/"+in.digest, nil)
	now := time.Now()
	switch {
	case err != nil:
		return o.fail("GET /v1/result: %v", err)
	case code == http.StatusAccepted:
		return pollEvery, false
	case code == http.StatusOK:
		o.body, o.done = body, now
		return checkVerdict(o, in.digest)
	default:
		return o.fail("GET /v1/result: %d", code)
	}
}

func (b *freshBench) measure(d time.Duration, traced bool) (*pass, error) {
	if need := freshInputs(d); b.next+need > len(b.inputs) {
		return nil, fmt.Errorf("vet-fresh: %d inputs left, a %s pass needs %d", len(b.inputs)-b.next, d, need)
	}
	p := &pass{headline: "latency_p50_ms", layers: map[string]float64{}}
	before := b.d.reg.Snapshot()
	l := &openLoopPass{
		name: "vet-fresh", rng: b.rng, nominal: freshNominal, ladder: freshLadder,
		pick: func(int) int { i := b.next; b.next++; return i },
		step: b.step,
	}
	if traced {
		l.afterNominal = func(nom *phase) { b.layers(p, nom, before) }
	}
	_, phases := l.run(p, d)
	checkFailures(p, "vet-fresh", phases)
	b.checkResubmits(p, phases)
	return p, nil
}

// checkResubmits resubmits a sample of vetted APKs: the cached answer
// must be 200 and byte-identical to the verdict first served.
func (b *freshBench) checkResubmits(p *pass, phases []*phase) {
	var done []*op
	for _, ph := range phases {
		for _, o := range ph.ops {
			if o.err == "" {
				done = append(done, o)
			}
		}
	}
	for k := 0; k < resubmitChecks && len(done) > 0; k++ {
		o := done[b.rng.Intn(len(done))]
		p.attempted++
		code, body, _, err := call(b.client, http.MethodPost, b.d.srv.URL+"/v1/scan", b.inputs[o.in].data)
		if err != nil || code != http.StatusOK || !bytes.Equal(body, o.body) {
			p.failed++
			p.checkErrs = append(p.checkErrs, fmt.Sprintf("vet-fresh: resubmit of %.12s answered %d (err %v), not the byte-identical verdict", b.inputs[o.in].digest, code, err))
		}
	}
}

// layers collects the per-layer metrics of the nominal phase: client
// spans, span trees from /v1/trace, and the daemon's metrics registry.
func (b *freshBench) layers(p *pass, nom *phase, before metrics.Snapshot) {
	after := b.d.reg.Snapshot()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	var accept, latency []float64
	var polls int
	for _, o := range nom.ops {
		if o.err == "" {
			accept = append(accept, ms(o.accepted.Sub(o.sent)))
			latency = append(latency, ms(o.latency()))
			polls += o.polls
		}
	}
	var queue, review, analyze, scan []float64
	stages := map[string][]float64{}
	for _, o := range lastDistinct(nom, traceSample) {
		t, err := fetchTrace(b.client, b.d.srv.URL, b.inputs[o.in].digest)
		if err != nil {
			p.checkErrs = append(p.checkErrs, "vet-fresh: "+err.Error())
			return
		}
		queue = append(queue, ms(t.Root.StartAt.Sub(o.accepted)))
		scan = append(scan, spanMS(t.Root))
		review = append(review, spanMS(t.Root.Find("review")))
		analyze = append(analyze, spanMS(t.Root.Find("analyze")))
		t.Root.Walk(func(s *trace.Span) {
			stages[s.Name] = append(stages[s.Name], us(s.Duration()))
		})
	}
	p50p99(p.layers, "service.accept_ms", accept)
	p50p99(p.layers, "service.queue_wait_ms", queue)
	p50p99(p.layers, "bouncer.review_ms", review)
	p50p99(p.layers, "core.analyze_ms", analyze)
	for _, s := range []string{"unpack", "dynamic", "interception", "static"} {
		p.layers["core."+s+".p99_us"] = quantile(stages[s], 0.99)
	}

	scans := float64(after.Stages["service.job"].Count - before.Stages["service.job"].Count)
	total := func(name string) float64 { return us(after.Stages[name].Total - before.Stages[name].Total) }
	count := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	jobUS := total("service.job") / scans
	p.layers["service.finalize_us_per_scan"] = jobUS - 1000*mean(scan)
	var stageSum float64
	for _, s := range []string{"unpack", "rewrite", "dynamic", "static"} {
		p.layers["core."+s+".us_per_app"] = total("stage."+s) / scans
		stageSum += total("stage." + s)
	}
	p.layers["core.analyze.self_us_per_app"] = (total("app.total") - stageSum) / scans
	p.layers["core.dynamic.yield"] = ratio(count("status.exercised"), float64(after.Stages["stage.dynamic"].Count-before.Stages["stage.dynamic"].Count))
	p.layers["core.prefilter.skip_ratio"] = count("status.no-dcl") / scans
	p.layers["service.polls_per_scan"] = ratio(float64(polls), float64(len(latency)))
	p.layers["service.rejected"] = count("service.scan.rejected")
	p.layers["service.deduped"] = count("service.scan.deduped")

	// Reconciliation: the parts of a scan's life add up to its latency;
	// what is left is the client's poll lag.
	parts := []struct {
		name string
		v    float64
	}{
		{"accept (POST → 202)", quantile(accept, 0.5)},
		{"queue wait (202 → scan span)", quantile(queue, 0.5)},
		{"bouncer review", quantile(review, 0.5)},
		{"core analyze", quantile(analyze, 0.5)},
		{"finalize (service.job − scan)", p.layers["service.finalize_us_per_scan"] / 1000},
	}
	lat := quantile(latency, 0.5)
	t := stats.NewTable(fmt.Sprintf("vet-fresh reconciliation (ms, medians of %d scans, %d span trees)", len(latency), len(scan)),
		"part", "ms", "share of p50 latency")
	var sumParts float64
	for _, pt := range parts {
		t.Row(pt.name, fmt.Sprintf("%.3f", pt.v), pct(pt.v, lat))
		sumParts += pt.v
	}
	t.Row("sum of parts", fmt.Sprintf("%.3f", sumParts), pct(sumParts, lat))
	t.Row("latency p50 (due → verdict 200)", fmt.Sprintf("%.3f", lat), "100.0%")
	t.Row("residual (poll lag, sender lateness)", fmt.Sprintf("%.3f", lat-sumParts), pct(lat-sumParts, lat))
	p.report += t.String() + "\n"
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
