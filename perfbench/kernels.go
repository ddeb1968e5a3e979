package main

// The kernels workload: one goroutine, no network, a fixed interleaved
// round-robin of library calls at widths 2–4. Interleaving spreads the
// host's slow phases over every kernel instead of charging one kernel
// per time window.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
	"unsafe"

	"multifloats/internal/blas"
	"multifloats/internal/exact"
	"multifloats/mf"
	"multifloats/serve/wire"
)

// Kernel sizes. Each call is small enough that a run holds many
// thousands of calls of every kind, and the schedule is shaped so that
// neither quantile sits in a gap between call kinds: p50 falls among the
// width-3 elementary functions and p99 inside the width-4 GEMM calls,
// which are scheduled twice per round to make up about 2.7% of calls.
const (
	kGemmN    = 16 // widths 2 and 3
	kGemm4N   = 12
	kGemvN    = 48
	kDotN     = 512
	kLaneN    = 256
	kExactN   = 256
	kMathReps = 4 // single-element mf calls per kind per round
	kVariants = 4 // input sets per call kind
)

// flat views a slice of expansions as its component slab, without
// copying.
func flat[E any](v []E) []float64 {
	if len(v) == 0 {
		return nil
	}
	n := len(v) * int(unsafe.Sizeof(v[0])) / 8
	return unsafe.Slice((*float64)(unsafe.Pointer(&v[0])), n)
}

// kcall is one library call on fixed inputs with its expected output.
type kcall struct {
	name  string
	run   func()
	check func() bool
}

// fixedCall wraps run (which fills out) with an expected result taken
// from one call at set-up.
func fixedCall(name string, out []float64, prep, run func()) kcall {
	prep()
	run()
	want := append([]float64(nil), out...)
	return kcall{
		name:  name,
		run:   func() { prep(); run() },
		check: func() bool { return sameBits(out, want) },
	}
}

func nop() {}

func gemmCall[E any](name string, a, b []E, n int, gemm func(a, b, c []E, n int)) kcall {
	c := make([]E, n*n)
	var zero E
	return fixedCall(name, flat(c), func() {
		for i := range c {
			c[i] = zero
		}
	}, func() { gemm(a, b, c, n) })
}

func gemvCall[E any](name string, a, x []E, n int, gemv func(a []E, n, m int, x, y []E)) kcall {
	y := make([]E, n)
	return fixedCall(name, flat(y), nop, func() { gemv(a, n, n, x, y) })
}

func reduceCall[E any](name string, x, y []E, f func(x, y []E) E) kcall {
	r := make([]E, 1)
	return fixedCall(name, flat(r), nop, func() { r[0] = f(x, y) })
}

func laneCall(name string, op blas.LaneOp, w int, x, y []float64) kcall {
	var xs, ys, zs blas.SoA
	for k := 0; k < w; k++ {
		xs[k], ys[k], zs[k] = make([]float64, kLaneN), make([]float64, kLaneN), make([]float64, kLaneN)
		for i := 0; i < kLaneN; i++ {
			xs[k][i], ys[k][i] = x[i*w+k], y[i*w+k]
		}
	}
	kern := blas.LaneKernel(op, w)
	// Expected bits come from the scalar mf path, which the lane kernels
	// promise to match.
	want := evalOp(laneWireOp[op], w, kLaneN, x, y)
	return kcall{
		name: name,
		run:  func() { kern(&xs, &ys, &zs, 0, kLaneN) },
		check: func() bool {
			for i := 0; i < kLaneN; i++ {
				for k := 0; k < w; k++ {
					if math.Float64bits(zs[k][i]) != math.Float64bits(want[i*w+k]) {
						return false
					}
				}
			}
			return true
		},
	}
}

var laneWireOp = map[blas.LaneOp]wire.Op{blas.LaneOpMul: wire.OpMul, blas.LaneOpDiv: wire.OpDiv, blas.LaneOpSqrt: wire.OpSqrt}

func mathCall(name string, op wire.Op, w int, x []float64) kcall {
	want := evalOp(op, w, 1, x, nil)
	out := make([]float64, w)
	var run func()
	switch w {
	case 2:
		a := mf.Float64x2(x)
		run = func() { r := apply(op, a, mf.Float64x2{}); copy(out, r[:]) }
	case 3:
		a := mf.Float64x3(x)
		run = func() { r := apply(op, a, mf.Float64x3{}); copy(out, r[:]) }
	default:
		a := mf.Float64x4(x)
		run = func() { r := apply(op, a, mf.Float64x4{}); copy(out, r[:]) }
	}
	return kcall{name: name, run: run, check: func() bool { return sameBits(out, want) }}
}

var kernelMathOps = []wire.Op{wire.OpExp, wire.OpLog, wire.OpSin, wire.OpTan}

// kernelCalls builds the round-robin schedule: kVariants rounds of every
// call kind at every width, interleaved.
func kernelCalls(seed int64) []kcall {
	rng := connSeed(seed, 200)
	// The elementary-function arguments of each (op, width) are drawn as
	// one stratified set and dealt out in shuffled order, so every seed
	// prices the same spread of argument-dependent paths.
	args := make(map[wire.Op][3][]float64)
	for _, op := range kernelMathOps {
		var byW [3][]float64
		for w := 2; w <= 4; w++ {
			n := kVariants * kMathReps
			lo, hi := band(op)
			x := expansions(rng, n, w, lo, hi)
			rng.Shuffle(n, func(i, j int) {
				for k := 0; k < w; k++ {
					x[i*w+k], x[j*w+k] = x[j*w+k], x[i*w+k]
				}
			})
			byW[w-2] = x
		}
		args[op] = byW
	}
	var calls []kcall
	for v := 0; v < kVariants; v++ {
		for w := 2; w <= 4; w++ {
			calls = append(calls, widthCalls(rng, w, func(op wire.Op, r int) []float64 {
				i := v*kMathReps + r
				return args[op][w-2][i*w : (i+1)*w]
			})...)
		}
	}
	return calls
}

// widthCalls builds one round of width-w calls; arg(op, r) is the
// argument of the r-th call of elementary function op.
func widthCalls(rng *rand.Rand, w int, arg func(op wire.Op, r int) []float64) []kcall {
	gn := kGemmN
	if w == 4 {
		gn = kGemm4N
	}
	gA := expansions(rng, gn*gn, w, -1, 1)
	gB := expansions(rng, gn*gn, w, -1, 1)
	vA := expansions(rng, kGemvN*kGemvN, w, -1, 1)
	vX := expansions(rng, kGemvN, w, -1, 1)
	dX := expansions(rng, kDotN, w, -1, 1)
	dY := expansions(rng, kDotN, w, -1, 1)
	lX := expansions(rng, kLaneN, w, 1, 2)
	lY := expansions(rng, kLaneN, w, 1, 2)
	eX := expansions(rng, kExactN, w, -1, 1)
	eY := expansions(rng, kExactN, w, -1, 1)
	name := func(k string) string { return fmt.Sprintf("%s%d", k, w) }

	var cs []kcall
	switch w {
	case 2:
		cs = append(cs,
			gemmCall(name("gemm"), wire.Unpack2(gA), wire.Unpack2(gB), gn, blas.GemmBlockedF2[float64]),
			gemvCall(name("gemv"), wire.Unpack2(vA), wire.Unpack2(vX), kGemvN, blas.GemvTiledF2[float64]),
			reduceCall(name("dot"), wire.Unpack2(dX), wire.Unpack2(dY), blas.DotF2[float64]),
			reduceCall(name("sum_exact"), wire.Unpack2(eX), nil, func(x, _ []mf.Float64x2) mf.Float64x2 { return exact.Sum2(x) }),
			reduceCall(name("dot_exact"), wire.Unpack2(eX), wire.Unpack2(eY), exact.Dot2))
	case 3:
		cs = append(cs,
			gemmCall(name("gemm"), wire.Unpack3(gA), wire.Unpack3(gB), gn, blas.GemmBlockedF3[float64]),
			gemvCall(name("gemv"), wire.Unpack3(vA), wire.Unpack3(vX), kGemvN, blas.GemvTiledF3[float64]),
			reduceCall(name("dot"), wire.Unpack3(dX), wire.Unpack3(dY), blas.DotF3[float64]),
			reduceCall(name("sum_exact"), wire.Unpack3(eX), nil, func(x, _ []mf.Float64x3) mf.Float64x3 { return exact.Sum3(x) }),
			reduceCall(name("dot_exact"), wire.Unpack3(eX), wire.Unpack3(eY), exact.Dot3))
	default:
		cs = append(cs,
			gemmCall(name("gemm"), wire.Unpack4(gA), wire.Unpack4(gB), gn, blas.GemmBlockedF4[float64]),
			gemvCall(name("gemv"), wire.Unpack4(vA), wire.Unpack4(vX), kGemvN, blas.GemvTiledF4[float64]),
			reduceCall(name("dot"), wire.Unpack4(dX), wire.Unpack4(dY), blas.DotF4[float64]),
			reduceCall(name("sum_exact"), wire.Unpack4(eX), nil, func(x, _ []mf.Float64x4) mf.Float64x4 { return exact.Sum4(x) }),
			reduceCall(name("dot_exact"), wire.Unpack4(eX), wire.Unpack4(eY), exact.Dot4))
	}
	cs = append(cs,
		laneCall(name("lane_mul"), blas.LaneOpMul, w, lX, lY),
		laneCall(name("lane_div"), blas.LaneOpDiv, w, lX, lY),
		laneCall(name("lane_sqrt"), blas.LaneOpSqrt, w, lX, lY))
	for r := 0; r < kMathReps; r++ {
		for _, op := range kernelMathOps {
			cs = append(cs, mathCall(name(op.String()), op, w, arg(op, r)))
		}
	}
	if w == 4 {
		cs = slices.Insert(cs, len(cs)/2, cs[0]) // the second GEMM call
	}
	return cs
}

// runKernels calls the schedule round-robin until dur elapses (or for
// rounds full rounds when dur is 0), timing every call.
func runKernels(calls []kcall, dur time.Duration, rounds int, tr *tracer) *outcome {
	lat := newLatLog(dur / statWindows)
	res := &outcome{lat: []*latLog{lat}, failures: make(map[string]int64)}
	rec := tr.recorder()
	start := time.Now()
	var seq uint64
	for r := 0; ; r++ {
		if dur == 0 && r == rounds {
			break
		}
		if dur > 0 && time.Since(start) >= dur {
			break
		}
		for i := range calls {
			k := &calls[i]
			seq++
			t0 := time.Now()
			k.run()
			d := time.Since(t0)
			res.attempted++
			if rec != nil {
				// Spans are placed on the same clock as the untraced
				// timing; the verify span follows the call.
				s := int64(t0.Sub(rec.epoch))
				e := s + int64(d)
				ok := k.check()
				v := rec.now()
				rec.add(spanKernel, spanOp, seq, s, e)
				rec.add(spanVerify, spanOp, seq, e, v)
				rec.add(spanOp, spanNone, seq, s, v)
				if !ok {
					res.failed++
					res.failures["wrong-bits:"+k.name]++
				}
			} else if !k.check() {
				res.failed++
				res.failures["wrong-bits:"+k.name]++
			}
			lat.add(int64(t0.Sub(start)+d), d)
		}
	}
	res.window = time.Since(start)
	res.ok = res.attempted - res.failed
	return res
}
