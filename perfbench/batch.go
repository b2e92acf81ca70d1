package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"strings"
	"time"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/experiments"
	"github.com/dydroid/dydroid/internal/stats"
)

// batchScale sizes one experiments.Run of batch-market: 5,877 apps, a
// few seconds of analysis on two cores, so a run repeats it several times
// and reports medians.
const batchScale = 0.1

// trainPerFamily is the DroidNative training size experiments.Run uses
// by default.
const trainPerFamily = 3

// batchPin is the seed-independent output of one batch-market Run: the
// calibrated marketplace plants the same ground truth at every seed, so
// the Table II statuses and every table but Table III (whose download
// counts are drawn from the seed) are fixed for a scale.
var batchPin = struct {
	statuses   map[core.Status]int
	tablesHash string
}{
	statuses: map[core.Status]int{
		core.StatusExercised: 4522, core.StatusNoDCL: 1269, core.StatusCrash: 21,
		core.StatusRewriteFailure: 58, core.StatusUnpackFailure: 5, core.StatusNoActivity: 2,
	},
	tablesHash: "f40b930535d4ec0ad1ca30864abec7124f02a8fced4f73e0b8be36bd96c9afce",
}

// seedTables hashes every table of the report except Table III.
func seedTables(r *experiments.Results) string {
	var b strings.Builder
	for _, s := range []string{
		r.TableI(), r.TableII(), r.TableIV(), r.TableV(), r.TableVI(),
		r.Figure3(), r.TableVII(), r.TableVIII(), r.TableIX(), r.TableX(),
	} {
		b.WriteString(s)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

type batchBench struct {
	seed    int64
	workers int
	// store is the set-up corpus at the workload seed and scale: the same
	// apps experiments.Run generates, used to time Store.BuildAPK.
	store          *corpus.Store
	genMS, trainMS float64
	// report is the first Run's full report, elapsed time zeroed: every
	// later Run at the seed must reproduce it byte for byte.
	report string
}

func setupBatch(e *env) (bench, error) {
	b := &batchBench{seed: e.seed, workers: numCPU()}
	t0 := time.Now()
	st, err := corpus.Generate(corpus.Config{Seed: e.seed, Scale: batchScale})
	if err != nil {
		return nil, err
	}
	b.genMS = msSince(t0)
	t0 = time.Now()
	if _, err := st.TrainingSet(trainPerFamily); err != nil {
		return nil, err
	}
	b.trainMS = msSince(t0)
	b.store = st
	return b, nil
}

func (b *batchBench) close() {}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// batchRep is one measured experiments.Run. Only its RunStats are kept,
// so one Run's records do not inflate the next Run's heap.
type batchRep struct {
	stats experiments.RunStats
	use   delta
	heap  float64
}

func (b *batchBench) measure(d time.Duration, traced bool) (*pass, error) {
	p := &pass{headline: "apps_per_s", endToEnd: map[string]float64{}, layers: map[string]float64{}}
	var reps []batchRep
	start := time.Now()
	for {
		heap := startHeapPeak()
		u := readUsage()
		res, err := experiments.Run(experiments.Config{
			Seed: b.seed, Scale: batchScale, Workers: b.workers, Stream: true,
		})
		use := since(u)
		peak := heap.mb()
		if err != nil {
			return nil, err
		}
		b.check(p, res)
		reps = append(reps, batchRep{stats: res.RunStats, use: use, heap: peak})
		// Start another Run only if it fits in the measured duration.
		if time.Since(start)+use.wall > d {
			break
		}
	}

	var appsPerS, cpuMS, allocs, heap, p50, p99 []float64
	for _, r := range reps {
		apps := float64(r.stats.Apps)
		appsPerS = append(appsPerS, apps/r.use.wall.Seconds())
		cpuMS = append(cpuMS, float64(r.use.cpu)/float64(time.Millisecond)/apps)
		allocs = append(allocs, float64(r.use.mallocs)/apps)
		heap = append(heap, r.heap)
		q := r.stats.StageQuantiles["app"]
		p50 = append(p50, float64(q.P50)/float64(time.Millisecond))
		p99 = append(p99, float64(q.P99)/float64(time.Millisecond))
	}
	// A batch has no arrival rate: the highest rate it sustains is its
	// throughput, so max_rate_at_slo reads apps_per_s here.
	p.endToEnd = map[string]float64{
		"apps_per_s":      median(appsPerS),
		"cpu_ms_per_op":   median(cpuMS),
		"allocs_per_op":   median(allocs),
		"peak_heap_mb":    median(heap),
		"latency_p50_ms":  median(p50),
		"max_rate_at_slo": median(appsPerS),
	}
	p.layers["latency_p99_ms"] = median(p99)
	t := stats.NewTable(fmt.Sprintf("batch-market: %d Runs of %d apps, workers=%d", len(reps), reps[0].stats.Apps, b.workers),
		"run", "wall", "apps/s", "cpu ms/app", "allocs/app", "peak heap MiB")
	for i, r := range reps {
		t.Row(i+1, r.use.wall.Round(time.Millisecond).String(), fmt.Sprintf("%.1f", appsPerS[i]),
			fmt.Sprintf("%.3f", cpuMS[i]), fmt.Sprintf("%.0f", allocs[i]), fmt.Sprintf("%.1f", heap[i]))
	}
	p.report = t.String() + "\n"
	if traced {
		b.layers(p, reps)
	}
	return p, nil
}

// check verifies one Run's output against the pinned seed-independent
// values and the seed's first report.
func (b *batchBench) check(p *pass, res *experiments.Results) {
	rs := res.RunStats
	p.attempted += int64(rs.Apps)
	p.failed += int64(rs.Failed)
	if rs.Failed > 0 {
		p.checkErrs = append(p.checkErrs, fmt.Sprintf("batch-market: %d analysis-error records", rs.Failed))
	}
	if !maps.Equal(rs.StatusCounts, batchPin.statuses) {
		p.checkErrs = append(p.checkErrs, fmt.Sprintf("batch-market: status counts %v, pinned %v", rs.StatusCounts, batchPin.statuses))
	}
	if h := seedTables(res); h != batchPin.tablesHash {
		p.checkErrs = append(p.checkErrs, fmt.Sprintf("batch-market: report tables hash %s, pinned %s", h, batchPin.tablesHash))
	}
	res.Elapsed = 0
	report := res.Report()
	switch {
	case b.report == "":
		b.report = report
	case report != b.report:
		p.checkErrs = append(p.checkErrs, "batch-market: report differs from the first Run at the same seed")
	}
}

// layers fills the per-layer metrics from the traced pass: RunStats stage
// totals and quantiles, runtime/metrics GC share, and a timing pass over
// Store.BuildAPK that separates the harness's archive build from the
// analyzer.
func (b *batchBench) layers(p *pass, reps []batchRep) {
	t0 := time.Now()
	for _, app := range b.store.Apps {
		if _, err := b.store.BuildAPK(app); err != nil {
			p.checkErrs = append(p.checkErrs, "batch-market: BuildAPK: "+err.Error())
			return
		}
	}
	buildUS := float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(b.store.Apps))

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	for _, r := range reps {
		rs := r.stats
		apps := float64(rs.Apps)
		slots := us(r.use.wall) * float64(b.workers)
		busy := us(rs.Stages["app.total"].Total) + us(rs.Stages["stage.replay"].Total)
		add("experiments.cpu_util", ratio(float64(r.use.cpu), float64(r.use.wall)*float64(b.workers)))
		add("experiments.overhead_us_per_app", (slots-busy)/apps-buildUS)
		add("experiments.retried", float64(rs.Retried))
		add("experiments.failed", float64(rs.Failed))
		var stageSum float64
		for _, s := range []string{"unpack", "rewrite", "dynamic", "static", "replay"} {
			tot := us(rs.Stages["stage."+s].Total)
			add("core."+s+".us_per_app", tot/apps)
			if s != "replay" {
				stageSum += tot
			}
		}
		for _, s := range []string{"unpack", "dynamic", "interception", "static"} {
			add("core."+s+".p99_us", us(rs.StageQuantiles[s].P99))
		}
		add("core.analyze.self_us_per_app", (us(rs.Stages["app.total"].Total)-stageSum)/apps)
		add("core.dynamic.yield", ratio(float64(rs.StatusCounts[core.StatusExercised]), float64(rs.Stages["stage.dynamic"].Count)))
		add("core.prefilter.skip_ratio", float64(rs.StatusCounts[core.StatusNoDCL])/apps)
		add("runtime.gc_cpu_share", r.use.gcShare)
		add("busy_us_per_app", busy/apps)
		add("slots_us_per_app", slots/apps)
	}
	for k, vs := range per {
		p.layers[k] = median(vs)
	}
	p.layers["corpus.generate_ms"] = b.genMS
	p.layers["corpus.train_ms"] = b.trainMS
	p.layers["corpus.build_apk_us_per_app"] = buildUS

	slots, busy := p.layers["slots_us_per_app"], p.layers["busy_us_per_app"]
	delete(p.layers, "slots_us_per_app")
	delete(p.layers, "busy_us_per_app")
	over := p.layers["experiments.overhead_us_per_app"]
	t := stats.NewTable("batch-market reconciliation (µs per app, medians): wall × workers = stage busy + build + overhead",
		"part", "µs/app", "share")
	t.Row("wall × workers", fmt.Sprintf("%.1f", slots), "100.0%")
	t.Row("stage busy (app.total + stage.replay)", fmt.Sprintf("%.1f", busy), pct(busy, slots))
	t.Row("harness BuildAPK", fmt.Sprintf("%.1f", buildUS), pct(buildUS, slots))
	t.Row("runner overhead", fmt.Sprintf("%.1f", over), pct(over, slots))
	p.report += t.String() + "\n"
	if over < 0 {
		p.report += "reconciliation: stage busy time and BuildAPK exceed wall × workers\n"
	}
}

func pct(part, whole float64) string { return fmt.Sprintf("%.1f%%", ratio(part, whole)*100) }
