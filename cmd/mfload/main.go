// Command mfload is the load generator for mfserved. It drives pipelined
// raw serve/wire connections (no client-side retry layer, so every server
// verdict is observed), and reports latency percentiles and throughput.
//
// Usage:
//
//	mfload [-addr host:port,host:port,...] [-conns 4] [-pipeline 64]
//	       [-count 8] [-op add] [-width 2] [-mix scalar] [-deadline 0]
//	       [-duration 5s] [-json] [-out file] [-gate]
//	mfload -compare [-duration 5s] [-out BENCH_serve.json] ...
//	mfload -proxy-compare [-duration 5s] [-out BENCH_serve.json] ...
//
// -addr accepts a comma-separated target list; connection i dials
// target i mod len(targets), so one run can spray a whole fleet (or an
// mfproxy next to its backends) with identical traffic.
//
// Besides the scalar arithmetic ops, -op also accepts the transcendental
// family (exp, log, sin, ..., pow, atan2, hypot — anything
// wire.Op.Math()) and the exact reductions (sumexact, dotexact; width
// 1..4), the latter driven as single-chunk final frames so each request
// is one complete reduction. -mix math drives a transcendental
// cross-section with domain-appropriate operands (tan gets huge args, so
// the Payne–Hanek reduction is priced in); -mix reduce drives all eight
// reduction shapes; the -compare report carries "reductions" and "math"
// legs so BENCH_serve.json covers them too.
//
// -gate exits nonzero if any protocol errors, checksum errors, or
// deadline misses occur — the CI smoke contract. -proxy-compare boots
// two in-process backends plus an mfproxy and measures the cluster
// tier: a direct single-backend leg, a proxy pass-through leg (cache
// disabled), and a proxy hot leg (the default repeated-payload mix is
// all cache hits after the first round); the cache speedup is
// hot/pass-through, and the "proxy" report key is merged into an
// existing -out file so one BENCH_serve.json carries every serving
// experiment. -compare ignores -addr: it boots two in-process
// servers, one with batching enabled (max-batch 256, 200µs window) and
// one pinned to one-request-per-batch, runs the identical load against
// each, and writes a JSON report with the batched/unbatched speedup
// (experiment E-Serve; the acceptance floor is 2.5x — the CRC32C
// integrity trailer of wire v2 costs a per-frame tax that batching
// cannot amortize, see EXPERIMENTS.md).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multifloats/serve/proxy"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

type opSpec struct {
	op    wire.Op
	width int
}

func (o opSpec) String() string { return fmt.Sprintf("%s%d", o.op, o.width) }

type loadConfig struct {
	addrs    []string // connection i dials addrs[i%len(addrs)]
	conns    int
	pipeline int
	count    int // expansion elements per request
	specs    []opSpec
	deadline time.Duration
	duration time.Duration
}

type loadResult struct {
	DurationSec    float64            `json:"duration_sec"`
	Requests       int64              `json:"requests"`
	Responses      int64              `json:"responses"`
	OK             int64              `json:"ok"`
	Overloads      int64              `json:"overloads"`
	DeadlineMisses int64              `json:"deadline_misses"`
	ProtocolErrors int64              `json:"protocol_errors"`
	ChecksumErrors int64              `json:"checksum_errors"`
	ThroughputRPS  float64            `json:"throughput_rps"`
	ThroughputEPS  float64            `json:"throughput_eps"`
	LatencySamples int                `json:"latency_samples"`
	LatencyUs      map[string]float64 `json:"latency_us"`
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7333", "target address(es), comma-separated; connection i dials target i mod N")
		conns    = flag.Int("conns", 4, "concurrent connections")
		pipeline = flag.Int("pipeline", 64, "outstanding requests per connection")
		count    = flag.Int("count", 8, "expansion elements per request")
		opName   = flag.String("op", "add", "op: add|sub|mul|div|sqrt, a transcendental (exp, sin, pow, ...), or a reduction")
		width    = flag.Int("width", 2, "expansion width: 2|3|4")
		mix      = flag.String("mix", "", `traffic preset: "" = single -op/-width, "scalar" = all 5 ops x widths 2..4, "math" = transcendental cross-section, "reduce" = all reduction shapes`)
		deadline = flag.Duration("deadline", 0, "per-request deadline (0 = none)")
		duration = flag.Duration("duration", 5*time.Second, "load duration (per leg in -compare)")
		jsonOut  = flag.Bool("json", false, "print the report as JSON (always on with -out or -compare)")
		outFile  = flag.String("out", "", `write the JSON report to this file (default "BENCH_serve.json" with -compare)`)
		gate     = flag.Bool("gate", false, "exit 1 on any protocol, checksum, or deadline errors")
		minRPS   = flag.Float64("min-rps", 0, "with -gate: also fail when throughput falls below this req/s floor")
		compare  = flag.Bool("compare", false, "run batched vs one-request-per-batch in-process servers and report the speedup")
		proxyCmp = flag.Bool("proxy-compare", false, "run direct vs proxied (cold and cache-hot) in-process legs and report the cluster speedups")
	)
	flag.Parse()

	specs, err := parseSpecs(*mix, *opName, *width)
	if err != nil {
		log.Fatalf("mfload: %v", err)
	}
	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("mfload: -addr needs at least one target")
	}
	cfg := loadConfig{
		addrs:    addrs,
		conns:    *conns,
		pipeline: *pipeline,
		count:    *count,
		specs:    specs,
		deadline: *deadline,
		duration: *duration,
	}

	if *compare {
		if *outFile == "" {
			*outFile = "BENCH_serve.json"
		}
		runCompare(cfg, *outFile, *gate)
		return
	}
	if *proxyCmp {
		if *outFile == "" {
			*outFile = "BENCH_serve.json"
		}
		runProxyCompare(cfg, *outFile, *gate)
		return
	}

	res, err := runLoad(cfg)
	if err != nil {
		log.Fatalf("mfload: %v", err)
	}
	report := map[string]any{
		"bench":  "mfload",
		"config": configJSON(cfg),
		"result": res,
	}
	emit(report, *outFile, *jsonOut || *outFile != "")
	if !*jsonOut && *outFile == "" {
		printHuman("load", res)
	}
	gateExit(*gate, *minRPS, res)
}

func parseSpecs(mix, opName string, width int) ([]opSpec, error) {
	switch mix {
	case "":
		op, err := wire.ParseOp(opName)
		if err != nil {
			return nil, err
		}
		if !op.Scalar() && !op.Reduction() {
			return nil, fmt.Errorf("op %q is not a scalar op or reduction", opName)
		}
		minWidth := 2
		if op.Reduction() {
			minWidth = 1
		}
		if width < minWidth || width > 4 {
			return nil, fmt.Errorf("width %d out of range [%d,4]", width, minWidth)
		}
		return []opSpec{{op, width}}, nil
	case "scalar":
		var specs []opSpec
		for _, op := range []wire.Op{wire.OpAdd, wire.OpSub, wire.OpMul, wire.OpDiv, wire.OpSqrt} {
			for w := 2; w <= 4; w++ {
				specs = append(specs, opSpec{op, w})
			}
		}
		return specs, nil
	case "reduce":
		var specs []opSpec
		for _, op := range []wire.Op{wire.OpSumExact, wire.OpDotExact} {
			for w := 1; w <= 4; w++ {
				specs = append(specs, opSpec{op, w})
			}
		}
		return specs, nil
	case "math":
		// A representative transcendental cross-section rather than all
		// twenty ops: one exp-family member, one log, the two trig shapes
		// (moderate args and the Payne–Hanek-bound tan), one inverse, and
		// the three binary ops, across the widths.
		var specs []opSpec
		for _, op := range []wire.Op{wire.OpExp, wire.OpLog, wire.OpSin,
			wire.OpTan, wire.OpAtan, wire.OpPow, wire.OpAtan2, wire.OpHypot} {
			for w := 2; w <= 4; w++ {
				specs = append(specs, opSpec{op, w})
			}
		}
		return specs, nil
	default:
		return nil, fmt.Errorf("unknown mix %q", mix)
	}
}

// payloads are request operand templates, generated once per (op,width):
// well-separated expansions with op-appropriate leads — positive 1..2 by
// default (div and sqrt stay in the normal path), small signed for the
// exp family, in-domain for asin/acos, and moderate-to-large for trig so
// the measured rate reflects real kernel work (tan additionally probes
// the Payne–Hanek reduction) rather than NaN fast paths. The wire layer
// copies on encode, so sharing across requests and goroutines is safe.
type payload struct {
	spec opSpec
	x, y []float64
}

// payloadRange returns the lead-value band for op's operands.
func payloadRange(op wire.Op) (lo, hi float64) {
	switch op {
	case wire.OpExp, wire.OpExpm1, wire.OpExp2, wire.OpSinh, wire.OpCosh, wire.OpTanh:
		return -5, 5
	case wire.OpSin, wire.OpCos, wire.OpAtan2:
		return 1, 1e6
	case wire.OpTan:
		return 1e18, 1e20 // Payne–Hanek territory: prices the reduction
	case wire.OpAsin, wire.OpAcos:
		return -0.99, 0.99
	default:
		return 1, 2
	}
}

func makePayloads(specs []opSpec, count int) []payload {
	rng := rand.New(rand.NewSource(0x10ad))
	gen := func(w int, lo, hi float64) []float64 {
		s := make([]float64, count*w)
		for i := 0; i < count; i++ {
			v := lo + (hi-lo)*rng.Float64()
			for k := 0; k < w; k++ {
				s[i*w+k] = v
				v *= 1e-17 * rng.Float64()
			}
		}
		return s
	}
	ps := make([]payload, len(specs))
	for i, sp := range specs {
		lo, hi := payloadRange(sp.op)
		ps[i] = payload{spec: sp, x: gen(sp.width, lo, hi)}
		// Second operand: binary scalar ops and dotexact; sumexact (like
		// the unary ops) carries only X — Validate rejects a stray Y.
		if sp.op == wire.OpDotExact || (!sp.op.Reduction() && !sp.op.Unary()) {
			ps[i].y = gen(sp.width, lo, hi)
		}
	}
	return ps
}

// tally is the shared counter/latency sink for one load run.
type tally struct {
	requests  atomic.Int64
	responses atomic.Int64
	ok        atomic.Int64
	overloads atomic.Int64
	deadlines atomic.Int64
	protoErrs atomic.Int64
	checksums atomic.Int64

	mu   sync.Mutex
	lats []time.Duration
}

func (t *tally) record(d time.Duration) {
	t.mu.Lock()
	t.lats = append(t.lats, d)
	t.mu.Unlock()
}

// runLoad drives cfg.conns pipelined connections for cfg.duration.
func runLoad(cfg loadConfig) (*loadResult, error) {
	payloads := makePayloads(cfg.specs, cfg.count)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()

	var t tally
	var wg sync.WaitGroup
	errs := make(chan error, cfg.conns)
	start := time.Now()
	for i := 0; i < cfg.conns; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := driveConn(ctx, cfg, payloads, i, &t); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return nil, err
	}
	return summarize(&t, cfg, elapsed), nil
}

// driveConn runs one connection: a writer goroutine keeps cfg.pipeline
// requests outstanding; the reader (this goroutine) matches responses to
// send times by ID. After the duration expires the writer stops and the
// reader drains the remaining in-flight requests.
func driveConn(ctx context.Context, cfg loadConfig, payloads []payload, seed int, t *tally) error {
	addr := cfg.addrs[seed%len(cfg.addrs)]
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer nc.Close()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(nc, 1<<16)
	bw := bufio.NewWriterSize(nc, 1<<16)

	// Latency is sampled (1 in latSample requests) so timestamping and the
	// send-time map stay off the per-request fast path; throughput counts
	// every response. Outstanding accounting uses an atomic so the drain
	// phase does not depend on the sample map.
	const latSample = 16
	var mu sync.Mutex // guards sampled + bw
	sampled := make(map[uint64]time.Time, cfg.pipeline/latSample+1)
	var outstanding atomic.Int64
	sem := make(chan struct{}, cfg.pipeline)
	writeDone := make(chan error, 1)

	go func() {
		var id uint64
		pi := seed
		flush := func() error {
			mu.Lock()
			defer mu.Unlock()
			return bw.Flush()
		}
		for {
			// Flush before blocking: buffered requests only hit the wire when
			// the pipeline window is full (or the run ends), so the generator
			// spends syscalls per window, not per request.
			select {
			case <-ctx.Done():
				writeDone <- flush()
				return
			case sem <- struct{}{}:
			default:
				if err := flush(); err != nil {
					writeDone <- fmt.Errorf("flush: %w", err)
					return
				}
				select {
				case <-ctx.Done():
					writeDone <- nil
					return
				case sem <- struct{}{}:
				}
			}
			p := payloads[pi%len(payloads)]
			pi++
			id++
			req := &wire.Request{
				ID:    id,
				Op:    p.spec.op,
				Width: p.spec.width,
				Count: cfg.count,
				X:     p.x,
				Y:     p.y,
			}
			if p.spec.op.Reduction() {
				// Single-chunk reductions: each request is a complete
				// stream, so pipelined IDs never collide with open
				// accumulator state on the server.
				req.M = wire.FlagReduceFinal
			}
			if cfg.deadline > 0 {
				req.Deadline = time.Now().Add(cfg.deadline)
			}
			outstanding.Add(1)
			mu.Lock()
			if id%latSample == 0 {
				sampled[id] = time.Now()
			}
			err := wire.WriteRequest(bw, req)
			mu.Unlock()
			if err != nil {
				writeDone <- fmt.Errorf("write: %w", err)
				return
			}
			t.requests.Add(1)
		}
	}()

	// Read until the writer has stopped and every in-flight request is
	// answered (bounded by a drain grace period).
	drainDeadline := time.Time{}
	for {
		if drainDeadline.IsZero() {
			select {
			case err := <-writeDone:
				if err != nil {
					return err
				}
				drainDeadline = time.Now().Add(2 * time.Second)
				if outstanding.Load() == 0 {
					return nil
				}
			default:
			}
		} else {
			if outstanding.Load() == 0 || time.Now().After(drainDeadline) {
				return nil
			}
		}
		if br.Buffered() == 0 {
			// About to block on the socket: bound the wait so the drain and
			// writer state are re-polled. When buffered frames remain, skip
			// the deadline reset (a syscall per response otherwise).
			nc.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		}
		resp, err := wire.ReadResponse(br)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue // poll the writer/drain state again
			}
			if errors.Is(err, wire.ErrChecksum) {
				// The trailer was consumed before the verdict, so the stream
				// is still framed: count the corrupt response (this is the
				// client-observed integrity figure the gate checks) and keep
				// reading.
				t.checksums.Add(1)
				outstanding.Add(-1)
				<-sem
				t.responses.Add(1)
				continue
			}
			if !drainDeadline.IsZero() {
				return nil // connection wound down during drain
			}
			return fmt.Errorf("read: %w", err)
		}
		outstanding.Add(-1)
		<-sem
		t.responses.Add(1)
		var sent time.Time
		haveSample := false
		if resp.ID%latSample == 0 {
			mu.Lock()
			sent, haveSample = sampled[resp.ID]
			delete(sampled, resp.ID)
			mu.Unlock()
		}
		switch resp.Status {
		case wire.StatusOK:
			t.ok.Add(1)
			if haveSample {
				t.record(time.Since(sent))
			}
		case wire.StatusOverloaded:
			t.overloads.Add(1)
		case wire.StatusDeadlineExceeded:
			t.deadlines.Add(1)
		default:
			t.protoErrs.Add(1)
		}
	}
}

func summarize(t *tally, cfg loadConfig, elapsed time.Duration) *loadResult {
	t.mu.Lock()
	lats := t.lats
	t.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(q * float64(len(lats)))
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return float64(lats[i]) / float64(time.Microsecond)
	}
	ok := t.ok.Load()
	sec := elapsed.Seconds()
	return &loadResult{
		DurationSec:    sec,
		Requests:       t.requests.Load(),
		Responses:      t.responses.Load(),
		OK:             ok,
		Overloads:      t.overloads.Load(),
		DeadlineMisses: t.deadlines.Load(),
		ProtocolErrors: t.protoErrs.Load(),
		ChecksumErrors: t.checksums.Load(),
		ThroughputRPS:  float64(ok) / sec,
		ThroughputEPS:  float64(ok*int64(cfg.count)) / sec,
		LatencySamples: len(lats),
		LatencyUs: map[string]float64{
			"p50": pct(0.50), "p90": pct(0.90), "p99": pct(0.99),
			"p999": pct(0.999), "max": pct(1),
		},
	}
}

// startDaemon binds an in-process server or proxy and runs its accept
// loop; stopDaemon drains it. Either fails the run on any error.
func startDaemon(name string, d interface {
	Listen() error
	Serve() error
}) chan error {
	if err := d.Listen(); err != nil {
		log.Fatalf("mfload: %s listen: %v", name, err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve() }()
	return done
}

func stopDaemon(name string, d interface{ Shutdown(context.Context) error }, done chan error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		log.Fatalf("mfload: %s shutdown: %v", name, err)
	}
	if err := <-done; err != nil {
		log.Fatalf("mfload: %s serve: %v", name, err)
	}
}

// runCompare measures the batching win: the same load against an
// in-process server with coalescing on, then one pinned to
// one-request-per-batch. Everything else (kernels, pool, wire, loopback
// TCP) is identical, so the ratio isolates the scheduler.
func runCompare(cfg loadConfig, outFile string, gate bool) {
	batched := server.Config{BatchWindow: 200 * time.Microsecond, MaxBatch: 256}
	unbatched := server.Config{BatchWindow: -1, MaxBatch: 1} // negative window: flush on arrival

	runLeg := func(name string, scfg server.Config, legCfg loadConfig) *loadResult {
		scfg.Addr = "127.0.0.1:0"
		s := server.New(scfg)
		done := startDaemon(name, s)
		legCfg.addrs = []string{s.Addr().String()}
		res, err := runLoad(legCfg)
		if err != nil {
			log.Fatalf("mfload: %s leg: %v", name, err)
		}
		stopDaemon(name, s, done)
		snap := s.Stats().Snapshot()
		if snap.Batches > 0 {
			log.Printf("mfload: %s leg: %.0f req/s, mean batch occupancy %.1f",
				name, res.ThroughputRPS, float64(snap.BatchedReqs)/float64(snap.Batches))
		}
		return res
	}

	// Unbatched first so the batched leg cannot ride its page/pool warmup.
	ub := runLeg("unbatched", unbatched, cfg)
	b := runLeg("batched", batched, cfg)

	// Third leg: the exact reductions, on a default server. They bypass
	// the batcher (chunks fold on the connection goroutine), so the
	// batched/unbatched ratio does not apply — this leg exists so
	// BENCH_serve.json carries a throughput figure for them and the
	// perf-smoke gate notices a reduction-path regression.
	redCfg := cfg
	redCfg.specs, _ = parseSpecs("reduce", "", 0)
	red := runLeg("reductions", server.Config{}, redCfg)

	// Fourth leg: the transcendental family on a default server. Math ops
	// batch like the scalar ops but cost hundreds of arithmetic ops per
	// element (tan pays Payne–Hanek on huge args), so this leg records an
	// absolute throughput figure rather than a batching ratio.
	mathCfg := cfg
	mathCfg.specs, _ = parseSpecs("math", "", 0)
	mth := runLeg("math", server.Config{}, mathCfg)

	speedup := 0.0
	if ub.ThroughputRPS > 0 {
		speedup = b.ThroughputRPS / ub.ThroughputRPS
	}
	report := map[string]any{
		"bench":      "E-Serve",
		"config":     configJSON(cfg),
		"unbatched":  ub,
		"batched":    b,
		"reductions": red,
		"math":       mth,
		"speedup":    speedup,
	}
	emit(report, outFile, true)
	printHuman("unbatched", ub)
	printHuman("batched", b)
	printHuman("reductions", red)
	printHuman("math", mth)
	fmt.Printf("speedup (batched/unbatched): %.2fx\n", speedup)
	gateExit(gate, 0, ub)
	gateExit(gate, 0, b)
	gateExit(gate, 0, red)
	gateExit(gate, 0, mth)
}

// runProxyCompare measures the cluster tier against in-process
// components: a direct single-backend leg, a proxy pass-through leg
// (cache disabled, so every request is routed and forwarded), and a
// proxy hot leg (default cache; the repeated payload mix hits after the
// first round). Everything — kernels, wire, loopback TCP — is shared,
// so hot/passthrough isolates the content-addressed cache and
// passthrough/direct prices the extra hop. The "proxy" key is merged
// into an existing -out report so BENCH_serve.json keeps its E-Serve
// legs.
func runProxyCompare(cfg loadConfig, outFile string, gate bool) {
	startBackend := func() (*server.Server, chan error) {
		s := server.New(server.Config{Addr: "127.0.0.1:0"})
		return s, startDaemon("backend", s)
	}
	runLeg := func(name, addr string) *loadResult {
		legCfg := cfg
		legCfg.addrs = []string{addr}
		res, err := runLoad(legCfg)
		if err != nil {
			log.Fatalf("mfload: %s leg: %v", name, err)
		}
		return res
	}
	startProxy := func(cacheBytes int64, b1, b2 string) (*proxy.Proxy, chan error) {
		p, err := proxy.New(proxy.Config{
			Addr:       "127.0.0.1:0",
			Backends:   []string{b1, b2},
			CacheBytes: cacheBytes,
		})
		if err != nil {
			log.Fatalf("mfload: proxy: %v", err)
		}
		return p, startDaemon("proxy", p)
	}

	s1, d1 := startBackend()
	s2, d2 := startBackend()

	direct := runLeg("direct", s1.Addr().String())

	pCold, pcDone := startProxy(-1, s1.Addr().String(), s2.Addr().String())
	passthrough := runLeg("proxy-passthrough", pCold.Addr().String())
	stopDaemon("proxy-passthrough", pCold, pcDone)

	pHot, phDone := startProxy(0 /* default budget */, s1.Addr().String(), s2.Addr().String())
	hot := runLeg("proxy-hot", pHot.Addr().String())
	hotSnap := pHot.Stats().Snapshot()
	stopDaemon("proxy-hot", pHot, phDone)

	stopDaemon("backend-1", s1, d1)
	stopDaemon("backend-2", s2, d2)

	cacheSpeedup := 0.0
	if passthrough.ThroughputRPS > 0 {
		cacheSpeedup = hot.ThroughputRPS / passthrough.ThroughputRPS
	}
	hopCost := 0.0
	if direct.ThroughputRPS > 0 {
		hopCost = passthrough.ThroughputRPS / direct.ThroughputRPS
	}
	proxyReport := map[string]any{
		"bench":           "E-Proxy",
		"config":          configJSON(cfg),
		"direct":          direct,
		"passthrough":     passthrough,
		"hot":             hot,
		"cache_hits":      hotSnap.CacheHits,
		"cache_misses":    hotSnap.CacheMisses,
		"cache_speedup":   cacheSpeedup,
		"passthrough_rel": hopCost,
	}

	// Merge under "proxy" so an existing E-Serve report keeps its legs.
	report := map[string]any{}
	if prev, err := os.ReadFile(outFile); err == nil {
		if err := json.Unmarshal(prev, &report); err != nil {
			log.Printf("mfload: %s exists but is not JSON (%v); rewriting", outFile, err)
			report = map[string]any{}
		}
	}
	report["proxy"] = proxyReport
	emit(report, outFile, true)
	printHuman("direct", direct)
	printHuman("proxy-passthrough", passthrough)
	printHuman("proxy-hot", hot)
	fmt.Printf("proxy cache speedup (hot/passthrough): %.2fx; passthrough vs direct: %.2fx; %d hits / %d misses\n",
		cacheSpeedup, hopCost, hotSnap.CacheHits, hotSnap.CacheMisses)
	gateExit(gate, 0, direct)
	gateExit(gate, 0, passthrough)
	gateExit(gate, 0, hot)
}

func configJSON(cfg loadConfig) map[string]any {
	specs := make([]string, len(cfg.specs))
	for i, s := range cfg.specs {
		specs[i] = s.String()
	}
	return map[string]any{
		"conns":        cfg.conns,
		"pipeline":     cfg.pipeline,
		"count":        cfg.count,
		"ops":          strings.Join(specs, ","),
		"deadline_ms":  float64(cfg.deadline) / float64(time.Millisecond),
		"duration_sec": cfg.duration.Seconds(),
	}
}

func emit(report map[string]any, outFile string, stdout bool) {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatalf("mfload: marshal: %v", err)
	}
	buf = append(buf, '\n')
	if outFile != "" {
		if err := os.WriteFile(outFile, buf, 0o644); err != nil {
			log.Fatalf("mfload: write %s: %v", outFile, err)
		}
		log.Printf("mfload: wrote %s", outFile)
	}
	if stdout {
		os.Stdout.Write(buf)
	}
}

func printHuman(name string, r *loadResult) {
	fmt.Printf("%s: %.0f req/s (%.0f elem/s) over %.1fs — p50 %.0fµs p90 %.0fµs p99 %.0fµs p999 %.0fµs max %.0fµs; %d overloads, %d deadline misses, %d protocol errors, %d checksum errors\n",
		name, r.ThroughputRPS, r.ThroughputEPS, r.DurationSec,
		r.LatencyUs["p50"], r.LatencyUs["p90"], r.LatencyUs["p99"], r.LatencyUs["p999"], r.LatencyUs["max"],
		r.Overloads, r.DeadlineMisses, r.ProtocolErrors, r.ChecksumErrors)
}

// gateViolation is the -gate policy, separated from os.Exit so it is
// testable: it returns a failure description, or "" when r passes.
func gateViolation(minRPS float64, r *loadResult) string {
	// A run that completed nothing proves nothing: the zero error counters
	// are vacuous (there was no traffic for them to count) and the
	// percentile map is all zeros from the empty-sample guard, which a
	// dashboard would happily plot as "0µs p99". Fail loudly instead of
	// letting an unreachable or instantly-rejecting server pass the gate.
	if r.OK == 0 {
		return fmt.Sprintf("zero requests completed "+
			"(%d sent, %d answered: %d overloads, %d deadline misses, %d protocol errors, %d checksum errors) — "+
			"latency/throughput figures are vacuous; is the server up and accepting this op mix?",
			r.Requests, r.Responses, r.Overloads, r.DeadlineMisses, r.ProtocolErrors, r.ChecksumErrors)
	}
	// Checksum errors gate alongside protocol errors: a corrupt frame that
	// reached the client is an integrity failure even though the wire layer
	// refused to decode it, and exactly the thing a chaos/netfault smoke
	// run exists to catch.
	if r.ProtocolErrors > 0 || r.DeadlineMisses > 0 || r.ChecksumErrors > 0 {
		return fmt.Sprintf("%d protocol errors, %d deadline misses, %d checksum errors",
			r.ProtocolErrors, r.DeadlineMisses, r.ChecksumErrors)
	}
	// The throughput floor is a coarse perf-regression tripwire for CI
	// (make perf-smoke), not a benchmark: set it far below the measured
	// rate so only an order-of-magnitude regression — a serialized batch
	// path, an accidental per-request allocation storm — trips it on
	// noisy shared runners.
	if minRPS > 0 && r.ThroughputRPS < minRPS {
		return fmt.Sprintf("throughput %.0f req/s below the -min-rps floor %.0f",
			r.ThroughputRPS, minRPS)
	}
	return ""
}

func gateExit(gate bool, minRPS float64, r *loadResult) {
	if !gate {
		return
	}
	if v := gateViolation(minRPS, r); v != "" {
		fmt.Fprintf(os.Stderr, "mfload: GATE FAILED: %s\n", v)
		os.Exit(1)
	}
}
