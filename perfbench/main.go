// Command perfbench is the repository's layered benchmark. It measures
// the system end to end on four closed-loop workloads and, in a separate
// traced run, layer by layer. Build and run it through the wrapper, from
// the root of a checkout:
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 15 --trace 0
//
// The wrapper builds this program and the mfserved and mfproxy daemons
// from the checkout's sources. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The line
// before it is the run's stamp (host, seed, load shape, sample counts,
// steal ticks, TIME_WAIT sockets at start). See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times each run sets up its workload; setup_s is
// the median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "kernels, serve-small, serve-bulk or proxy-mixed")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
		binDir  = flag.String("bin", "", "directory holding the mfserved and mfproxy binaries")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *binDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0, --trace 0|1 and --bin")
		os.Exit(2)
	}
	w, err := newWorkload(*wlName, *binDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	st := newStamp(*wlName, *seed, *trace == 1)
	var res *result
	if *trace == 1 {
		res, err = tracedRun(*wlName, *binDir, *seed, *seconds, st)
	} else {
		res, err = endToEndRun(w, *seed, *seconds, st)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	st.finish()
	stampLine, _ := json.Marshal(map[string]any{"stamp": st})
	resLine, _ := json.Marshal(res)
	fmt.Println(string(stampLine))
	fmt.Println(string(resLine))
}

// setUp prepares w and sets it up setupReps times, leaving the last
// set-up running; it returns the median set-up time in seconds.
func setUp(w workload, seed int64, seconds float64, st *stamp) (float64, error) {
	w.prepare(seed, seconds)
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		err := w.setup()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			w.teardown()
			return 0, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		if i < setupReps-1 {
			w.teardown()
		}
	}
	st.Setups[w.name()] = times
	st.Shape[w.name()] = w.shape()
	return median(times), nil
}

func endToEndRun(w workload, seed int64, seconds float64, st *stamp) (*result, error) {
	name := w.name()
	setup, err := setUp(w, seed, seconds, st)
	defer w.teardown()
	if err != nil {
		return nil, err
	}
	dur := time.Duration(seconds * float64(time.Second))
	out, err := w.measure(dur, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	st.record(name, out)
	opsPerS, p50, p99, minSamples := windowStats(out.lat, dur/statWindows)
	st.Windows[name]["stat_windows"], st.Windows[name]["window_min_samples"] = statWindows, minSamples
	if minSamples < 1000 {
		return nil, fmt.Errorf("%s: a window holds only %d latency samples; its p99 needs at least 1000", name, minSamples)
	}
	n := float64(out.attempted)
	return &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics: map[string]metric{
			"setup_s":        {setup, "s"},
			"ops_per_s":      {opsPerS, "1/s"},
			"p50_us":         {p50 / 1e3, "us"},
			"p99_us":         {p99 / 1e3, "us"},
			"cpu_us_per_op":  {float64(out.use.cpu.Microseconds()) / n, "us"},
			"alloc_b_per_op": {float64(out.use.alloc) / n, "B"},
			"peak_rss_mib":   {float64(out.rssBytes) / (1 << 20), "MiB"},
		},
	}, nil
}

// tracedRun produces the per-layer metrics: the in-process layer probes,
// then every workload for a short window untraced (daemon counters) and
// traced (span self times). The selected workload's pair of windows
// gives the tracing overhead.
func tracedRun(name, binDir string, seed int64, seconds float64, st *stamp) (*result, error) {
	total := time.Duration(seconds * float64(time.Second))
	metrics := layerProbes(seed, total/4)
	phase := total * 3 / 4 / time.Duration(2*len(workloadNames))
	res := &result{Correct: true, Metrics: metrics}

	spans := make(map[string]map[string]float64)
	var overhead float64
	for _, wn := range workloadNames {
		w, _ := newWorkload(wn, binDir)
		if _, err := setUp(w, seed, 2*phase.Seconds(), st); err != nil {
			w.teardown()
			return nil, err
		}
		plain, err := w.measure(phase, nil)
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: %w", wn, err)
		}
		tr := newTracer(spanCap(wn, phase))
		traced, err := w.measure(phase, tr)
		w.teardown()
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", wn, err)
		}
		if err := layerCounters(wn, plain, metrics); err != nil {
			return nil, err
		}
		st.record(wn, plain)
		st.record(wn+" traced", traced)
		for _, o := range []*outcome{plain, traced} {
			res.Attempted += o.attempted
			res.Failed += o.failed
		}
		self, ops, dropped := tr.selfTimes()
		spans[wn] = self
		st.Trace[wn] = map[string]any{"ops_traced": ops, "spans_dropped": dropped}
		if err := tr.writeSpans(filepath.Join(".bench_build", "trace", wn+".tsv.gz")); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		if wn == name {
			overhead = 1 - rate(traced)/rate(plain)
		}
	}
	// Each span is reported from the selected workload when it records
	// that span, otherwise from the workload that owns it.
	owner := map[string]string{"kernel_call": "kernels", "encode": "serve-small", "write_flush": "serve-small",
		"await": "serve-small", "decode": "serve-small", "client_call": "serve-bulk", "verify": name}
	for sp, wn := range owner {
		v, ok := spans[name][sp]
		if !ok {
			v = spans[wn][sp]
		}
		metrics["trace."+sp+".self_us_per_op"] = metric{v, "us"}
	}
	metrics["trace.overhead_frac"] = metric{overhead, "fraction"}
	res.Correct = res.Failed == 0
	return res, nil
}

// spanCap sizes each span recorder for a traced window of phase.
func spanCap(wn string, phase time.Duration) int {
	perSec := map[string]float64{"kernels": 1.2e6, "serve-small": 1.2e6, "serve-bulk": 2e4, "proxy-mixed": 2.5e5}[wn]
	return int(perSec*phase.Seconds()) + 1024
}

func rate(o *outcome) float64 { return float64(o.ok) / o.window.Seconds() }

// layerCounters derives the daemon- and client-side per-layer metrics
// from an untraced window of workload wn.
func layerCounters(wn string, o *outcome, m map[string]metric) error {
	switch wn {
	case "serve-small":
		d := o.use.daemons[0]
		reqs := float64(d.counters["mfserve.requests"])
		if reqs == 0 {
			return errors.New("serve-small: mfserved counted no requests")
		}
		m["server.cpu_us_per_req"] = metric{float64(d.cpu.Microseconds()) / reqs, "us"}
		m["server.alloc_b_per_req"] = metric{float64(d.alloc) / reqs, "B"}
		m["server.gc_per_mreq"] = metric{float64(d.gcs) / reqs * 1e6, "count/Mreq"}
		m["server.overload_frac"] = metric{float64(d.counters["mfserve.overloads"]) / reqs, "fraction"}
		batches := d.counters["mfserve.batches"]
		if batches == 0 {
			return errors.New("serve-small: mfserved ran no batches")
		}
		m["server.batch_occupancy"] = metric{float64(d.counters["mfserve.batched_requests"]) / float64(batches), "req/batch"}
		o.notes["server_batches"] = batches
	case "serve-bulk":
		lat := all(o.lat)
		m["client.call_p50_us"] = metric{lat.quantile(0.50) / 1e3, "us"}
		m["client.call_p99_us"] = metric{lat.quantile(0.99) / 1e3, "us"}
		m["client.alloc_b_per_call"] = metric{float64(o.use.selfAlloc) / float64(o.attempted), "B"}
	case "proxy-mixed":
		px := o.use.daemons[0]
		reqs := float64(px.counters["mfproxy.requests"])
		hits, misses := float64(px.counters["mfproxy.cache_hits"]), float64(px.counters["mfproxy.cache_misses"])
		if reqs == 0 || misses == 0 {
			return errors.New("proxy-mixed: mfproxy counted no forwarded requests")
		}
		m["client.upstream_conns_per_miss"] = metric{float64(o.newUpstreamConns) / misses, "conn/req"}
		m["proxy.cpu_us_per_req"] = metric{float64(px.cpu.Microseconds()) / reqs, "us"}
		m["proxy.alloc_b_per_req"] = metric{float64(px.alloc) / reqs, "B"}
		m["proxy.cache_hit_ratio"] = metric{hits / (hits + misses), "fraction"}
		hit, miss := all(o.hitLat), all(o.missLat)
		m["proxy.hit_p50_us"] = metric{hit.quantile(0.50) / 1e3, "us"}
		m["proxy.hit_p99_us"] = metric{hit.quantile(0.99) / 1e3, "us"}
		m["proxy.miss_p50_us"] = metric{miss.quantile(0.50) / 1e3, "us"}
		m["proxy.miss_p99_us"] = metric{miss.quantile(0.99) / 1e3, "us"}
		m["proxy.failovers"] = metric{float64(px.counters["mfproxy.failovers"]), "count"}
	}
	return nil
}

// stamp records what a run's numbers depend on, so that runs are only
// compared under like conditions and a run disturbed by a noisy
// neighbour or leftover sockets can be identified.
type stamp struct {
	Workload        string                    `json:"workload"`
	Seed            int64                     `json:"seed"`
	Traced          bool                      `json:"traced"`
	Nproc           int                       `json:"nproc"`
	GOMAXPROCS      int                       `json:"gomaxprocs"`
	GoVersion       string                    `json:"go_version"`
	CPUModel        string                    `json:"cpu_model"`
	TimeWaitAtStart int                       `json:"time_wait_at_start"`
	StealTicks      int64                     `json:"steal_ticks"`
	Shape           map[string]map[string]any `json:"shape"`
	Setups          map[string][]float64      `json:"setup_s_each"`
	Windows         map[string]map[string]any `json:"windows"`
	Trace           map[string]map[string]any `json:"trace,omitempty"`
	steal0          int64
}

func newStamp(wl string, seed int64, traced bool) *stamp {
	return &stamp{
		Workload: wl, Seed: seed, Traced: traced,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), TimeWaitAtStart: timeWaitSockets(), steal0: stealTicks(),
		Shape: map[string]map[string]any{}, Setups: map[string][]float64{},
		Windows: map[string]map[string]any{}, Trace: map[string]map[string]any{},
	}
}

func (s *stamp) record(name string, o *outcome) {
	w := map[string]any{
		"latency_samples": all(o.lat).total(), "attempted": o.attempted, "failed": o.failed,
		"window_s": o.window.Seconds(), "steal_ticks": o.use.steal,
		"bench_cpu_s": o.use.selfCPU.Seconds(), "all_cpu_s": o.use.cpu.Seconds(),
	}
	if len(o.hitLat) > 0 {
		w["hit_samples"], w["miss_samples"] = all(o.hitLat).total(), all(o.missLat).total()
		w["new_upstream_conns"] = o.newUpstreamConns
	}
	if len(o.failures) > 0 {
		w["failures"] = o.failures
	}
	for k, v := range o.notes {
		w[k] = v
	}
	s.Windows[name] = w
}

func (s *stamp) finish() { s.StealTicks = stealTicks() - s.steal0 }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
