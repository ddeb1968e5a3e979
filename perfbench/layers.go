package main

// In-process per-layer probes for the traced run: direct calls into the
// FPAN networks (internal/core), the lane kernels and blocked BLAS
// (internal/blas), the superaccumulator (internal/exact), the elementary
// functions (mf) and the wire codec (serve/wire). Each probe runs its
// loop in three slices of its time budget and reports the median slice.

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"sort"
	"time"

	"multifloats/internal/blas"
	"multifloats/internal/core"
	"multifloats/internal/exact"
	"multifloats/mf"
	"multifloats/serve/wire"
)

// sink keeps probe results live so the compiler cannot drop the calls.
var sink float64

// nsPer runs body (which does units of work per call) repeatedly for
// budget, in three slices, and returns the median nanoseconds per unit.
func nsPer(budget time.Duration, units float64, body func()) float64 {
	body()
	var per []float64
	for s := 0; s < 3; s++ {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < budget/3 {
			body()
			n++
		}
		per = append(per, float64(time.Since(t0))/(float64(n)*units))
	}
	sort.Float64s(per)
	return per[1]
}

// allocPer returns heap bytes allocated per call of body.
func allocPer(calls int, body func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		body()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(calls)
}

// layerProbes measures every in-process per-layer metric within roughly
// budget.
func layerProbes(seed int64, budget time.Duration) map[string]metric {
	rng := connSeed(seed, 300)
	out := make(map[string]metric)
	each := budget / 22
	const n = 1024
	planes := func(w int) [4][]float64 {
		var p [4][]float64
		x := expansions(rng, n, w, 1, 2)
		for k := 0; k < w; k++ {
			p[k] = make([]float64, n)
			for i := range p[k] {
				p[k][i] = x[i*w+k]
			}
		}
		return p
	}

	// internal/core: gate networks over a slab of direct calls.
	x, y, z := planes(4), planes(4), [4][]float64{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	out["core.add2_ns"] = metric{nsPer(each, n, func() {
		for i := 0; i < n; i++ {
			z[0][i], z[1][i] = core.Add2(x[0][i], x[1][i], y[0][i], y[1][i])
		}
	}), "ns"}
	out["core.mul3_ns"] = metric{nsPer(each, n, func() {
		for i := 0; i < n; i++ {
			z[0][i], z[1][i], z[2][i] = core.Mul3(x[0][i], x[1][i], x[2][i], y[0][i], y[1][i], y[2][i])
		}
	}), "ns"}
	out["core.div4_ns"] = metric{nsPer(each, n, func() {
		for i := 0; i < n; i++ {
			z[0][i], z[1][i], z[2][i], z[3][i] = core.Div4(x[0][i], x[1][i], x[2][i], x[3][i], y[0][i], y[1][i], y[2][i], y[3][i])
		}
	}), "ns"}
	out["core.sqrt4_ns"] = metric{nsPer(each, n, func() {
		for i := 0; i < n; i++ {
			z[0][i], z[1][i], z[2][i], z[3][i] = core.Sqrt4(x[0][i], x[1][i], x[2][i], x[3][i])
		}
	}), "ns"}

	// internal/blas: lane kernels and single-worker kernels (ops counted
	// as in Fig. 9: n³ for GEMM, n² for GEMV, n for DOT).
	xs, ys, zs := blas.SoA(x), blas.SoA(y), blas.SoA(z)
	mul2, div3 := blas.LaneKernel(blas.LaneOpMul, 2), blas.LaneKernel(blas.LaneOpDiv, 3)
	out["blas.lane_mul2_ns"] = metric{nsPer(each, n, func() { mul2(&xs, &ys, &zs, 0, n) }), "ns"}
	out["blas.lane_div3_ns"] = metric{nsPer(each, n, func() { div3(&xs, &ys, &zs, 0, n) }), "ns"}

	const gn = 64
	gops := func(ops float64, body func()) metric { return metric{1 / nsPer(each, ops, body), "Gop/s"} }
	a2, b2, c2 := wire.Unpack2(expansions(rng, gn*gn, 2, -1, 1)), wire.Unpack2(expansions(rng, gn*gn, 2, -1, 1)), make([]mf.Float64x2, gn*gn)
	a3, b3, c3 := wire.Unpack3(expansions(rng, gn*gn, 3, -1, 1)), wire.Unpack3(expansions(rng, gn*gn, 3, -1, 1)), make([]mf.Float64x3, gn*gn)
	a4, b4, c4 := wire.Unpack4(expansions(rng, gn*gn, 4, -1, 1)), wire.Unpack4(expansions(rng, gn*gn, 4, -1, 1)), make([]mf.Float64x4, gn*gn)
	out["blas.gemm_f2_gops"] = gops(gn*gn*gn, func() { blas.GemmBlockedF2(a2, b2, c2, gn) })
	out["blas.gemm_f3_gops"] = gops(gn*gn*gn, func() { blas.GemmBlockedF3(a3, b3, c3, gn) })
	out["blas.gemm_f4_gops"] = gops(gn*gn*gn, func() { blas.GemmBlockedF4(a4, b4, c4, gn) })
	out["blas.gemm_f3_par_gops"] = gops(gn*gn*gn, func() { blas.GemmBlockedF3Parallel(a3, b3, c3, gn, blas.Workers()) })
	v3 := c3[:gn]
	out["blas.gemv_f3_gops"] = gops(gn*gn, func() { blas.GemvTiledF3(a3, gn, gn, b3[:gn], v3) })
	d2 := wire.Unpack2(expansions(rng, 4*n, 2, -1, 1))
	out["blas.dot_f2_gops"] = gops(4*n, func() { sink += blas.DotF2(d2, d2)[0] })

	// internal/exact: the superaccumulator.
	e1, e2 := expansions(rng, 4*n, 1, -1, 1), expansions(rng, 4*n, 1, -1, 1)
	s2 := wire.Unpack2(expansions(rng, 4*n, 2, -1, 1))
	out["exact.dot_ns_per_elem"] = metric{nsPer(each, 4*n, func() { sink += exact.Dot(e1, e2) }), "ns"}
	out["exact.sum2_ns_per_elem"] = metric{nsPer(each, 4*n, func() { sink += exact.Sum2(s2)[0] }), "ns"}
	out["exact.alloc_b_per_call"] = metric{allocPer(200, func() {
		sink += exact.Dot(e1, e2)
		sink += exact.Sum2(s2)[0]
	}) / 2, "B"}

	// mf: elementary functions, one element per call.
	const m = 64
	mathProbe := func(op wire.Op, w int) metric {
		lo, hi := band(op)
		xs := expansions(rng, m, w, lo, hi)
		return metric{nsPer(each, m, func() {
			for i := 0; i < m; i++ {
				sink += evalOne(op, w, xs[i*w:(i+1)*w])
			}
		}), "ns"}
	}
	out["mf.exp3_ns"] = mathProbe(wire.OpExp, 3)
	out["mf.log2_ns"] = mathProbe(wire.OpLog, 2)
	out["mf.sin2_ns"] = mathProbe(wire.OpSin, 2)
	out["mf.tan2_ph_ns"] = mathProbe(wire.OpTan, 2)

	// serve/wire: small frames are the serve-small mix; the bulk frame is
	// a width-3 GEMM request.
	pool := smallPool(rng, 15*16)
	var frames bytes.Buffer
	var respBytes int
	for i := range pool {
		req := pool[i].request(uint64(i + 1))
		if err := wire.WriteRequest(&frames, &req); err != nil {
			panic(err)
		}
		var rb bytes.Buffer
		if err := wire.WriteResponse(&rb, &wire.Response{ID: uint64(i + 1), Data: pool[i].want}); err != nil {
			panic(err)
		}
		respBytes += rb.Len()
	}
	out["wire.bytes_per_op"] = metric{float64(frames.Len()+respBytes) / float64(len(pool)), "B"}
	bw := bufio.NewWriterSize(io.Discard, 1<<16)
	encodeAll := func() {
		for i := range pool {
			req := pool[i].request(uint64(i + 1))
			_ = wire.WriteRequest(bw, &req)
		}
	}
	out["wire.encode_ns_per_frame"] = metric{nsPer(each, float64(len(pool)), encodeAll), "ns"}
	raw := frames.Bytes()
	rd := bytes.NewReader(raw)
	br := bufio.NewReaderSize(rd, 1<<16)
	decodeAll := func() {
		rd.Reset(raw)
		br.Reset(rd)
		for range pool {
			if _, err := wire.ReadRequest(br); err != nil {
				panic(err)
			}
		}
	}
	out["wire.decode_ns_per_frame"] = metric{nsPer(each, float64(len(pool)), decodeAll), "ns"}
	out["wire.alloc_b_per_frame"] = metric{allocPer(20, func() { encodeAll(); decodeAll() }) / float64(len(pool)), "B"}
	big := &wire.Request{ID: 1, Op: wire.OpGemm, Width: 3, Count: gn, X: flat(a3), Y: flat(b3)}
	var bigBuf bytes.Buffer
	_ = wire.WriteRequest(&bigBuf, big)
	kib := float64(bigBuf.Len()) / 1024
	out["wire.encode_ns_per_kib"] = metric{nsPer(each, kib, func() { _ = wire.WriteRequest(bw, big) }), "ns"}
	return out
}

// evalOne runs one mf call and returns its lead component.
func evalOne(op wire.Op, w int, x []float64) float64 {
	switch w {
	case 2:
		return apply(op, mf.Float64x2(x), mf.Float64x2{})[0]
	case 3:
		return apply(op, mf.Float64x3(x), mf.Float64x3{})[0]
	default:
		return apply(op, mf.Float64x4(x), mf.Float64x4{})[0]
	}
}
