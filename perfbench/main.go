// Command perfbench is the repository benchmark. It runs one named
// workload against the DyDroid pipeline, the vetting daemon or the vetting
// cluster, checks every output, and prints the metrics BENCHMARK.json
// declares: the end-to-end set with --trace 0, the per-layer set with
// --trace 1. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload vet-fresh --seed 3 --seconds 20 --trace 0
//	bash perfbench/run.sh compare OLD.txt NEW.txt
//
// See README.md in this directory for the workloads, the metric
// definitions and how to read a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds its whole set-up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 3

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON object printed as the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// specMetric and spec mirror the parts of BENCHMARK.json the benchmark
// reads: the declared metric names and units are the single source of
// truth for what a run prints.
type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// env is what a workload's set-up receives.
type env struct {
	seed int64
	// d is the measured duration; set-up builds inputs for it.
	d time.Duration
	// tmp is a private scratch directory inside the checkout, removed at
	// exit; durable result stores live here.
	tmp string
}

// pass is what one measured phase reports.
type pass struct {
	attempted, failed int64
	// checkErrs lists output checks that failed; any entry makes the run
	// incorrect.
	checkErrs []string
	endToEnd  map[string]float64
	layers    map[string]float64
	// headline names the end-to-end metric the tracing overhead is
	// computed on.
	headline string
	// report is the human-readable tables of the pass.
	report string
}

// bench is one set-up workload, ready to measure.
type bench interface {
	// measure runs the timed phase for about the given duration. traced
	// adds the per-layer collection on top of the plain run.
	measure(d time.Duration, traced bool) (*pass, error)
	close()
}

type workload struct {
	name  string
	setup func(e *env) (bench, error)
}

var workloads = []workload{
	{"batch-market", setupBatch},
	{"vet-fresh", setupFresh},
	{"vet-resubmit", setupResubmit},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return 2, fmt.Errorf("run from the repository root: %w", err)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}

	scratch := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp(scratch, wl.name+"-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)

	fmt.Println("host:", fingerprint())
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *traced)

	// Set up several times and keep the last set-up: setup_s is the
	// median, so one slow set-up does not move it.
	d := time.Duration(*seconds) * time.Second
	e := &env{seed: *seed, d: d, tmp: tmp}
	var (
		b      bench
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		b, err = wl.setup(e)
		if err != nil {
			return 1, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()

	var passes []*pass
	if *traced == 0 {
		p, err := b.measure(d, false)
		if err != nil {
			return 1, err
		}
		p.endToEnd["setup_s"] = median(setups)
		passes = []*pass{p}
	} else {
		// The traced run measures a plain half and a traced half on the
		// same set-up: the per-layer numbers come from the traced half and
		// the headline difference between the halves is the tracing
		// overhead.
		plain, err := b.measure(d/2, false)
		if err != nil {
			return 1, err
		}
		tr, err := b.measure(d-d/2, true)
		if err != nil {
			return 1, err
		}
		tr.layers["tracing.overhead_pct"] = overheadPct(sp, tr.headline, plain.endToEnd, tr.endToEnd)
		passes = []*pass{plain, tr}
	}

	out := output{Correct: true, Metrics: map[string]metricValue{}}
	for _, p := range passes {
		out.Attempted += p.attempted
		out.Failed += p.failed
		for _, c := range p.checkErrs {
			out.Correct = false
			fmt.Println("CHECK FAILED:", c)
		}
		fmt.Print(p.report)
	}
	last := passes[len(passes)-1]
	if *traced == 0 {
		err = fill(out.Metrics, sp.EndToEnd, last.endToEnd, false)
	} else {
		last.layers["failed_ratio"] = ratio(float64(out.Failed), float64(out.Attempted))
		err = fill(out.Metrics, sp.PerLayer, last.layers, true)
	}
	if err != nil {
		return 1, err
	}
	printTable(out.Metrics)
	line, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1, errors.New("an output check failed")
	}
	return 0, nil
}

// fill copies the measured values of the declared metrics into dst. An
// end-to-end metric a workload did not measure is an error; a per-layer
// metric of a layer the workload bypasses reads 0.
func fill(dst map[string]metricValue, decl []specMetric, got map[string]float64, zeroMissing bool) error {
	for _, m := range decl {
		v, ok := got[m.Name]
		if !ok && !zeroMissing {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		dst[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for k := range got {
		if _, ok := dst[k]; !ok {
			return fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", k)
		}
	}
	return nil
}

// overheadPct is how much worse the traced half's headline metric is than
// the plain half's, in percent of the plain value.
func overheadPct(sp *spec, headline string, plain, traced map[string]float64) float64 {
	p, t := plain[headline], traced[headline]
	if p == 0 {
		return 0
	}
	for _, m := range sp.EndToEnd {
		if m.Name == headline && m.Better == "higher" {
			return (p - t) / p * 100
		}
	}
	return (t - p) / p * 100
}

func printTable(ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// fingerprint names the host a result was measured on. Results from
// different fingerprints are not comparable.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s",
		cpuModel(), numCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel())
}

// compareMain compares two saved benchmark outputs metric by metric. It
// refuses to call a difference a regression when the host fingerprints
// differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD NEW (saved standard output of two runs)")
		return 2
	}
	var hosts [2]string
	var results [2]output
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		for _, l := range lines {
			if h, ok := strings.CutPrefix(l, "host: "); ok {
				hosts[i] = h
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &results[i]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: last line is not a result: %v\n", path, err)
			return 2
		}
	}
	if hosts[0] == "" || hosts[0] != hosts[1] {
		fmt.Printf("not comparable: host fingerprints differ\n  old: %s\n  new: %s\n", hosts[0], hosts[1])
		return 0
	}
	names := make([]string, 0, len(results[1].Metrics))
	for n := range results[1].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, ok := results[0].Metrics[n]
		nv := results[1].Metrics[n]
		delta := "n/a"
		if ok && o.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", (nv.Value-o.Value)/o.Value*100)
		}
		fmt.Printf("  %-36s %14.4f -> %14.4f %-6s %s\n", n, o.Value, nv.Value, nv.Unit, delta)
	}
	return 0
}
