package main

// The four workloads. Each one generates its inputs and expected results
// once (prepare), then starts its daemons and warms up (setup, timed and
// repeated for setup_s), then measures one closed-loop window.

import (
	"fmt"
	"os"
	"time"

	"multifloats/serve/client"
)

// Load shape. Two client connections (or callers) from one generator
// process on a 2-vCPU host; the depths are recorded in every run's stamp.
const (
	loadConns      = 2
	smallDepth     = 64   // serve-small: per connection; see README.md on why not deeper
	proxyDepth     = 2    // proxy-mixed: per connection; 4 in flight stay within the proxy's upstream pool
	smallPoolSize  = 4096 // distinct serve-small requests per connection, cycled
	smallWarmReqs  = 40000
	proxyHotSet    = 256
	proxyHotEvery  = 3 // every 3rd proxy-mixed request repeats the hot set
	proxyWarmFresh = 1024
	proxyFreshPerS = 4000 // fresh requests generated per connection per measured second
	bulkVariants   = 2
)

// outcome is what one measured window yields.
type outcome struct {
	attempted, failed int64
	ok                int64         // checked ops completed within the window
	window            time.Duration // from the first op to the deadline
	lat               []*latLog     // latency of every op, one log per connection or caller
	hitLat, missLat   []*latLog     // proxy-mixed: split by hot-set membership
	sent              []uint64      // pipelined loads: requests sent per connection
	failures          map[string]int64
	use               usage
	rssBytes          int64
	newUpstreamConns  int
	notes             map[string]any
}

type workload interface {
	name() string
	prepare(seed int64, seconds float64) // inputs and expected results
	setup() error                        // start daemons, warm up
	measure(dur time.Duration, tr *tracer) (*outcome, error)
	teardown()
	shape() map[string]any // connections, depths, sizes for the stamp
}

func newWorkload(name, binDir string) (workload, error) {
	switch name {
	case "kernels":
		return &kernelsWL{}, nil
	case "serve-small":
		return &smallWL{bin: binDir}, nil
	case "serve-bulk":
		return &bulkWL{bin: binDir}, nil
	case "proxy-mixed":
		return &proxyWL{bin: binDir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want kernels, serve-small, serve-bulk or proxy-mixed)", name)
}

var workloadNames = []string{"kernels", "serve-small", "serve-bulk", "proxy-mixed"}

// metered runs fn between two meter readings over ds and adds the usage
// and the processes' summed peak RSS to its outcome.
func metered(ds []*daemon, fn func() (*outcome, error)) (*outcome, error) {
	m0, err := readMeter(ds)
	if err != nil {
		return nil, err
	}
	out, err := fn()
	if err != nil {
		return nil, err
	}
	m1, err := readMeter(ds)
	if err != nil {
		return nil, err
	}
	out.use = diffMeter(m0, m1)
	out.rssBytes, _ = peakRSS(os.Getpid())
	for _, d := range ds {
		out.rssBytes += d.peakRSS()
	}
	return out, nil
}

// ---- kernels ----

type kernelsWL struct {
	seed  int64
	calls []kcall
}

func (w *kernelsWL) name() string { return "kernels" }

func (w *kernelsWL) prepare(seed int64, _ float64) { w.seed = seed }

// setup builds the schedule (inputs plus expected results) and runs two
// warm-up rounds; the first set-up in a process also fills mf's lazy
// constants.
func (w *kernelsWL) setup() error {
	w.calls = kernelCalls(w.seed)
	if r := runKernels(w.calls, 0, 2, nil); r.failed > 0 {
		return fmt.Errorf("kernels warm-up: %v", r.failures)
	}
	return nil
}

func (w *kernelsWL) measure(dur time.Duration, tr *tracer) (*outcome, error) {
	return metered(nil, func() (*outcome, error) {
		return runKernels(w.calls, dur, 0, tr), nil
	})
}

func (w *kernelsWL) teardown() {}

func (w *kernelsWL) shape() map[string]any {
	return map[string]any{"workers": 1, "calls_per_round": len(w.calls),
		"gemm_n": kGemmN, "gemm4_n": kGemm4N, "gemv_n": kGemvN, "dot_n": kDotN, "lane_n": kLaneN, "exact_n": kExactN}
}

// ---- serve-small ----

type smallWL struct {
	bin     string
	streams []*stream
	srv     *daemon
}

func (w *smallWL) name() string { return "serve-small" }

func (w *smallWL) prepare(seed int64, _ float64) {
	for c := 0; c < loadConns; c++ {
		w.streams = append(w.streams, &stream{pool: smallPool(connSeed(seed, c), smallPoolSize)})
	}
}

func (w *smallWL) setup() error {
	var err error
	if w.srv, err = startDaemon(w.bin, "mfserved"); err != nil {
		return err
	}
	return warmPipe(w.srv.addr, w.streams, smallDepth, smallWarmReqs)
}

func warmPipe(addr string, streams []*stream, depth int, reqs uint64) error {
	r, err := runPipe(addr, streams, depth, 0, reqs, nil)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", r.failed, r.attempted, r.failures)
	}
	return nil
}

func (w *smallWL) measure(dur time.Duration, tr *tracer) (*outcome, error) {
	return metered([]*daemon{w.srv}, func() (*outcome, error) {
		return runPipe(w.srv.addr, w.streams, smallDepth, dur, 0, tr)
	})
}

func (w *smallWL) teardown() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

func (w *smallWL) shape() map[string]any {
	return map[string]any{"conns": loadConns, "depth": smallDepth, "pool_per_conn": smallPoolSize,
		"warmup_requests_per_conn": smallWarmReqs, "count": 1}
}

// ---- serve-bulk ----

type bulkWL struct {
	bin   string
	pools [][]bulkCall
	srv   *daemon
	cl    *client.Client
}

func (w *bulkWL) name() string { return "serve-bulk" }

func (w *bulkWL) prepare(seed int64, _ float64) {
	for c := 0; c < loadConns; c++ {
		p := bulkPool(seed, 100+c, bulkVariants)
		// The second caller starts half a round later, so the two are not
		// in lock-step on the same kind of call.
		h := len(p) / (2 * bulkVariants)
		if c == 1 {
			p = append(p[h:], p[:h]...)
		}
		w.pools = append(w.pools, p)
	}
}

func (w *bulkWL) setup() error {
	var err error
	if w.srv, err = startDaemon(w.bin, "mfserved"); err != nil {
		return err
	}
	if w.cl, err = client.Dial(w.srv.addr, client.WithReduceChunk(bulkReduceChunk)); err != nil {
		return err
	}
	r := runBulk(w.cl, w.pools, 0, len(w.pools[0]), nil)
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d calls failed: %v", r.failed, r.attempted, r.failures)
	}
	return nil
}

func (w *bulkWL) measure(dur time.Duration, tr *tracer) (*outcome, error) {
	return metered([]*daemon{w.srv}, func() (*outcome, error) {
		return runBulk(w.cl, w.pools, dur, 0, tr), nil
	})
}

func (w *bulkWL) teardown() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

func (w *bulkWL) shape() map[string]any {
	return map[string]any{"callers": loadConns, "in_flight_per_caller": 1, "gemm_n": bulkGemmN,
		"gemv_n": bulkGemvN, "math_slab": bulkMathN, "reduce_n": bulkReduceN, "reduce_chunk": bulkReduceChunk,
		"calls_per_round": len(bulkKinds())}
}

// ---- proxy-mixed ----

type proxyWL struct {
	bin       string
	streams   []*stream // measured
	warm      []*stream
	backends  []*daemon
	px        *daemon
	freshSize int
}

func (w *proxyWL) name() string { return "proxy-mixed" }

func (w *proxyWL) prepare(seed int64, seconds float64) {
	hot := smallPool(connSeed(seed, 50), proxyHotSet)
	w.freshSize = int(seconds*proxyFreshPerS) + 1000
	for c := 0; c < loadConns; c++ {
		w.streams = append(w.streams, &stream{pool: smallPool(connSeed(seed, 60+c), w.freshSize), hot: hot, hotEvery: proxyHotEvery})
		w.warm = append(w.warm, &stream{pool: smallPool(connSeed(seed, 70+c), proxyWarmFresh), hot: hot, hotEvery: proxyHotEvery})
	}
}

// setup starts two backends and the proxy in front of them, then warms
// up with the hot set (which fills the proxy cache) and requests from a
// separate fresh pool, so that every measured fresh request is a miss.
func (w *proxyWL) setup() error {
	for i := 0; i < 2; i++ {
		d, err := startDaemon(w.bin, "mfserved")
		if err != nil {
			return err
		}
		w.backends = append(w.backends, d)
	}
	px, err := startDaemon(w.bin, "mfproxy", "-backends", w.backends[0].addr+","+w.backends[1].addr)
	if err != nil {
		return err
	}
	w.px = px
	return warmPipe(w.px.addr, w.warm, proxyDepth, 2*proxyWarmFresh)
}

func (w *proxyWL) measure(dur time.Duration, tr *tracer) (*outcome, error) {
	ports := map[string]bool{portHex(w.backends[0].addr): true, portHex(w.backends[1].addr): true}
	before := connsTo(ports)
	out, err := metered([]*daemon{w.px, w.backends[0], w.backends[1]}, func() (*outcome, error) {
		o, err := runPipe(w.px.addr, w.streams, proxyDepth, dur, 0, tr)
		if err != nil {
			return nil, err
		}
		var wrapped uint64
		for i, n := range o.sent {
			s := w.streams[i]
			s.skip += n
			if end := s.poolIndex(s.skip + 1); end > uint64(len(s.pool)) {
				wrapped += end - uint64(len(s.pool))
			}
		}
		o.notes["fresh_pool_overrun"] = wrapped
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	for k := range connsTo(ports) {
		if !before[k] {
			out.newUpstreamConns++
		}
	}
	return out, nil
}

func (w *proxyWL) teardown() {
	// The proxy goes first so it never sees its backends disappear.
	if w.px != nil {
		w.px.stop()
		w.px = nil
	}
	for _, d := range w.backends {
		d.stop()
	}
	w.backends = nil
}

func (w *proxyWL) shape() map[string]any {
	return map[string]any{"conns": loadConns, "depth": proxyDepth, "backends": 2, "hot_set": proxyHotSet,
		"hot_share": 1.0 / proxyHotEvery, "fresh_pool_per_conn": w.freshSize, "count": 1}
}
