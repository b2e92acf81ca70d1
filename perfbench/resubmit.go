package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/cluster"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/resultstore"
)

// vet-resubmit: a coordinator in front of two single-worker daemons,
// serving verdicts of already-vetted apps. The warm set is twice the
// workers' combined result-store LRU, so about half the reads hit the
// LRU and half go to disk.
const (
	resubmitWorkers   = 2
	resubmitWarm      = 2 * resubmitWorkers * daemonCacheSize
	resubmitNominal   = 300.0
	resubmitInputSeed = 2_000_003
)

// The ladder tops out at 900/s: two senders at about 1 ms a round trip
// are themselves half busy there.
var resubmitLadder = []float64{2, 3}

type resubmitBench struct {
	workers  []*daemon
	coordReg *metrics.Registry
	coord    *cluster.Coordinator
	srv      *httptest.Server
	ring     *cluster.Ring
	client   *http.Client
	rng      *rand.Rand
	warm     []input
	verdicts [][]byte // verdict served at set-up, by warm-set index
	owners   []string // ring owner, by warm-set index
}

func setupResubmit(e *env) (bench, error) {
	m, err := newMarket()
	if err != nil {
		return nil, err
	}
	warm, err := buildInputs(e.seed+resubmitInputSeed, resubmitWarm)
	if err != nil {
		return nil, err
	}
	b := &resubmitBench{client: newClient(), rng: rand.New(rand.NewSource(e.seed)), warm: warm, ring: cluster.NewRing(cluster.DefaultVNodes)}
	var nodes []string
	for w := 0; w < resubmitWorkers; w++ {
		dir, err := os.MkdirTemp(e.tmp, "store-")
		if err != nil {
			b.close()
			return nil, err
		}
		d, err := startDaemon(m, dir, 1)
		if err != nil {
			b.close()
			return nil, err
		}
		b.workers = append(b.workers, d)
		node := strings.TrimPrefix(d.srv.URL, "http://")
		nodes = append(nodes, node)
		b.ring.Add(node)
	}
	b.coordReg = metrics.New()
	b.coord, err = cluster.New(cluster.Config{Nodes: nodes, Metrics: b.coordReg})
	if err != nil {
		b.close()
		return nil, err
	}
	b.srv = httptest.NewServer(b.coord.Handler())
	if err := b.prevet(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *resubmitBench) close() {
	if b.srv != nil {
		b.srv.Close()
	}
	if b.coord != nil {
		b.coord.Close()
	}
	for _, d := range b.workers {
		d.close()
	}
}

// prevetWindow is how many warm-set scans are in flight at once during
// set-up: enough to keep both single-worker daemons busy, well under
// their queue depth.
const prevetWindow = 32

// prevet vets the whole warm set through the coordinator, a window of
// scans at a time from nproc goroutines, and records each verdict and
// the node that served it.
func (b *resubmitBench) prevet() error {
	b.verdicts = make([][]byte, len(b.warm))
	b.owners = make([]string, len(b.warm))
	for lo := 0; lo < len(b.warm); lo += prevetWindow {
		window := make([]int, 0, prevetWindow)
		for i := lo; i < min(lo+prevetWindow, len(b.warm)); i++ {
			window = append(window, i)
		}
		if err := parallel(window, b.submit); err != nil {
			return err
		}
		deadline := time.Now().Add(opTimeout)
		for len(window) > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("pre-vet: no verdict after %s", opTimeout)
			}
			time.Sleep(time.Millisecond) // between polling rounds of the window
			if err := parallel(window, b.collect); err != nil {
				return err
			}
			pending := window[:0]
			for _, i := range window {
				if b.verdicts[i] == nil {
					pending = append(pending, i)
				}
			}
			window = pending
		}
	}
	return nil
}

// parallel runs fn over idx from nproc goroutines and returns the first
// error.
func parallel(idx []int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for g := 0; g < numCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, i := range idx {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

func (b *resubmitBench) submit(i int) error {
	in := &b.warm[i]
	code, _, _, err := call(b.client, http.MethodPost, b.srv.URL+"/v1/scan", in.data)
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("pre-vet POST %.12s: %d %v", in.digest, code, err)
	}
	return nil
}

// collect polls one submitted scan and records its verdict once served.
func (b *resubmitBench) collect(i int) error {
	in := &b.warm[i]
	code, body, hdr, err := call(b.client, http.MethodGet, b.srv.URL+"/v1/result/"+in.digest, nil)
	switch {
	case err != nil:
		return err
	case code == http.StatusAccepted:
		return nil
	case code != http.StatusOK:
		return fmt.Errorf("pre-vet GET %.12s: %d", in.digest, code)
	}
	o := &op{body: body}
	if checkVerdict(o, in.digest); o.err != "" {
		return fmt.Errorf("pre-vet: %s", o.err)
	}
	if owner := hdr.Get("X-Dydroid-Node"); owner != b.ring.Owner(in.digest) {
		return fmt.Errorf("pre-vet %.12s served by %s, ring owner %s", in.digest, owner, b.ring.Owner(in.digest))
	}
	b.verdicts[i], b.owners[i] = body, hdr.Get("X-Dydroid-Node")
	return nil
}

// step resubmits a vetted APK: the coordinator must relay the stored
// verdict, byte-identical, from the ring owner.
func (b *resubmitBench) step(o *op) (time.Duration, bool) {
	o.sent = time.Now()
	code, body, hdr, err := call(b.client, http.MethodPost, b.srv.URL+"/v1/scan", b.warm[o.in].data)
	o.done, o.accepted = time.Now(), time.Now()
	switch {
	case err != nil:
		return o.fail("POST /v1/scan: %v", err)
	case code != http.StatusOK:
		return o.fail("POST /v1/scan: %d, want 200 from the store", code)
	case !bytes.Equal(body, b.verdicts[o.in]):
		return o.mismatch("verdict of %.12s differs from the one served at set-up", b.warm[o.in].digest)
	case hdr.Get("X-Dydroid-Node") != b.owners[o.in]:
		return o.mismatch("%.12s served by %q, ring owner %s", b.warm[o.in].digest, hdr.Get("X-Dydroid-Node"), b.owners[o.in])
	}
	return 0, true
}

func (b *resubmitBench) storeStats() resultstore.Stats {
	var s resultstore.Stats
	for _, d := range b.workers {
		w := d.rs.Stats()
		s.Hits += w.Hits
		s.Misses += w.Misses
		s.CacheHits += w.CacheHits
	}
	return s
}

func (b *resubmitBench) measure(d time.Duration, traced bool) (*pass, error) {
	p := &pass{headline: "latency_p50_ms", layers: map[string]float64{}}
	st0 := b.storeStats()
	c0 := b.coordReg.Snapshot()
	l := &openLoopPass{
		name: "vet-resubmit", rng: b.rng, nominal: resubmitNominal, ladder: resubmitLadder,
		pick: func(int) int { return b.rng.Intn(len(b.warm)) },
		step: b.step,
	}
	if traced {
		l.afterNominal = func(nom *phase) {
			st1 := b.storeStats()
			c1 := b.coordReg.Snapshot()
			hits := float64(st1.Hits - st0.Hits)
			p.layers["resultstore.lru_hit_ratio"] = ratio(float64(st1.CacheHits-st0.CacheHits), hits)
			p.layers["resultstore.miss_ratio"] = ratio(float64(st1.Misses-st0.Misses), hits+float64(st1.Misses-st0.Misses))
			p.layers["cluster.rerouted"] = float64(c1.Counters["cluster.scan.rerouted"] - c0.Counters["cluster.scan.rerouted"])
			p.layers["cluster.failover"] = float64(c1.Counters["cluster.scan.failover"] - c0.Counters["cluster.scan.failover"])
			b.layers(p, nom)
		}
	}
	_, phases := l.run(p, d)
	checkFailures(p, "vet-resubmit", phases)
	return p, nil
}

// layers reads the coordinator's route span trees of the newest distinct
// resubmissions: route (ring lookup, forward, relay), the attempt span
// around the forward to the worker, and the client round trip outside
// the attempt.
func (b *resubmitBench) layers(p *pass, nom *phase) {
	var route, forward, self []float64
	for _, o := range lastDistinct(nom, traceSample) {
		t, err := fetchTrace(b.client, b.srv.URL, b.warm[o.in].digest)
		if err != nil {
			p.checkErrs = append(p.checkErrs, "vet-resubmit: "+err.Error())
			return
		}
		att := t.Root.Find("attempt")
		route = append(route, spanMS(t.Root))
		forward = append(forward, spanMS(att))
		self = append(self, float64(o.done.Sub(o.sent)-att.Duration())/float64(time.Microsecond))
	}
	p50p99(p.layers, "cluster.route_ms", route)
	p50p99(p.layers, "cluster.forward_ms", forward)
	p.layers["cluster.self_us.p50"] = quantile(self, 0.5)
}
