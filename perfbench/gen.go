package main

// Seeded input generation. Every workload draws its operands from a
// math/rand source seeded with --seed, while the op mix, the widths and
// every size are fixed constants: a new seed changes operand values and
// nothing else, so a claim measured on one seed can be re-checked on an
// unseen one with an identical load shape. Expected results are computed
// here, at set-up, with the library itself (mf, blas, exact); the
// serving stack promises bit-identical results, so every response is
// compared bit for bit against them.

import (
	"fmt"
	"math"
	"math/rand"

	"multifloats/internal/blas"
	"multifloats/internal/exact"
	"multifloats/mf"
	"multifloats/serve/wire"
)

// band returns the lead-component range for op's operands. Tan draws
// from 1e18..1e20 so that every call pays the Payne–Hanek reduction.
func band(op wire.Op) (lo, hi float64) {
	switch op {
	case wire.OpExp:
		return -5, 5
	case wire.OpSin:
		return 1, 1e6
	case wire.OpTan:
		return 1e18, 1e20
	default:
		return 1, 2
	}
}

// expansions returns n width-w expansions, flattened leading component
// first, with non-overlapping tails. The leads are stratified: lead i is
// uniform in the i-th of n equal slices of [lo, hi). The elementary
// functions take argument-dependent paths, so stratifying keeps the cost
// of a slab the same for every seed while the values change.
func expansions(rng *rand.Rand, n, w int, lo, hi float64) []float64 {
	s := make([]float64, n*w)
	for i := 0; i < n; i++ {
		v := lo + (hi-lo)*(float64(i)+rng.Float64())/float64(n)
		for k := 0; k < w; k++ {
			s[i*w+k] = v
			v *= 1e-17 * (0.5 + rng.Float64())
		}
	}
	return s
}

// mathVal is the method set evalOp dispatches through; mf.F2, F3 and F4
// of float64 all implement it.
type mathVal[E any] interface {
	Add(E) E
	Sub(E) E
	Mul(E) E
	Div(E) E
	Sqrt() E
	Exp() E
	Log() E
	Sin() E
	Tan() E
}

func apply[E mathVal[E]](op wire.Op, x, y E) E {
	switch op {
	case wire.OpAdd:
		return x.Add(y)
	case wire.OpSub:
		return x.Sub(y)
	case wire.OpMul:
		return x.Mul(y)
	case wire.OpDiv:
		return x.Div(y)
	case wire.OpSqrt:
		return x.Sqrt()
	case wire.OpExp:
		return x.Exp()
	case wire.OpLog:
		return x.Log()
	case wire.OpSin:
		return x.Sin()
	case wire.OpTan:
		return x.Tan()
	}
	panic(fmt.Sprintf("perfbench: no local evaluation for %v", op))
}

// evalOp computes op elementwise over count width-w expansions locally,
// the reference every remote result is checked against.
func evalOp(op wire.Op, w, count int, x, y []float64) []float64 {
	out := make([]float64, count*w)
	for i := 0; i < count; i++ {
		xs := x[i*w : (i+1)*w]
		var ys []float64
		if y != nil {
			ys = y[i*w : (i+1)*w]
		} else {
			ys = make([]float64, w)
		}
		var r []float64
		switch w {
		case 2:
			v := apply(op, mf.Float64x2(xs), mf.Float64x2(ys))
			r = v[:]
		case 3:
			v := apply(op, mf.Float64x3(xs), mf.Float64x3(ys))
			r = v[:]
		default:
			v := apply(op, mf.Float64x4(xs), mf.Float64x4(ys))
			r = v[:]
		}
		copy(out[i*w:], r)
	}
	return out
}

// sameBits reports whether two slabs are identical bit for bit (NaN
// payloads and signed zeros included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// smallReq is one 1-element scalar request with its expected result.
type smallReq struct {
	op    wire.Op
	width int
	x, y  []float64
	want  []float64
}

// request is the frame a connection sends for r as request id.
func (r *smallReq) request(id uint64) wire.Request {
	return wire.Request{ID: id, Op: r.op, Width: r.width, Count: 1, X: r.x, Y: r.y}
}

// smallOps is the serve-small and proxy-mixed op mix: every arithmetic
// op at every width, in a fixed round-robin.
var smallOps = [...]wire.Op{wire.OpAdd, wire.OpSub, wire.OpMul, wire.OpDiv, wire.OpSqrt}

func smallSpec(i int) (wire.Op, int) {
	return smallOps[i%len(smallOps)], 2 + (i/len(smallOps))%3
}

// smallPool returns n requests of the round-robin mix with seeded
// operands and locally computed expected results.
func smallPool(rng *rand.Rand, n int) []smallReq {
	pool := make([]smallReq, n)
	for i := range pool {
		op, w := smallSpec(i)
		lo, hi := band(op)
		r := smallReq{op: op, width: w, x: expansions(rng, 1, w, lo, hi)}
		if op != wire.OpSqrt {
			r.y = expansions(rng, 1, w, lo, hi)
		}
		r.want = evalOp(op, w, 1, r.x, r.y)
		pool[i] = r
	}
	return pool
}

// connSeed derives an independent, reproducible stream per connection
// (and per purpose) from the run seed.
func connSeed(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919 + 1))
}

// Bulk calls (serve-bulk). Sizes are fixed; only operand values follow
// the seed.
const (
	bulkGemmN       = 20
	bulkGemvN       = 64
	bulkMathN       = 32
	bulkReduceN     = 3*bulkReduceChunk + 500 // four chunks
	bulkReduceChunk = 1024
)

// bulkKind enumerates one round of serve-bulk calls.
type bulkKind struct {
	name  string
	op    wire.Op // OpGemm, OpGemv, a math op, OpSumExact or OpDotExact
	width int
}

func bulkKinds() []bulkKind {
	var ks []bulkKind
	for w := 2; w <= 4; w++ {
		ks = append(ks,
			bulkKind{fmt.Sprintf("gemm%d", w), wire.OpGemm, w},
			bulkKind{fmt.Sprintf("gemv%d", w), wire.OpGemv, w},
			bulkKind{fmt.Sprintf("exp%d", w), wire.OpExp, w},
			bulkKind{fmt.Sprintf("log%d", w), wire.OpLog, w},
			bulkKind{fmt.Sprintf("sin%d", w), wire.OpSin, w},
			bulkKind{fmt.Sprintf("tan%d", w), wire.OpTan, w},
			bulkKind{fmt.Sprintf("sumexact%d", w), wire.OpSumExact, w},
			bulkKind{fmt.Sprintf("dotexact%d", w), wire.OpDotExact, w},
		)
	}
	return ks
}

// bulkCall is one serve-bulk call with its inputs and expected result.
type bulkCall struct {
	kind bulkKind
	x, y []float64
	want []float64
}

func makeBulkCall(rng *rand.Rand, k bulkKind) bulkCall {
	c := bulkCall{kind: k}
	w := k.width
	switch k.op {
	case wire.OpGemm:
		n := bulkGemmN
		c.x = expansions(rng, n*n, w, -1, 1)
		c.y = expansions(rng, n*n, w, -1, 1)
		c.want = gemmLocal(w, c.x, c.y, n)
	case wire.OpGemv:
		n := bulkGemvN
		c.x = expansions(rng, n*n, w, -1, 1)
		c.y = expansions(rng, n, w, -1, 1)
		c.want = gemvLocal(w, c.x, n, n, c.y)
	case wire.OpSumExact:
		c.x = expansions(rng, bulkReduceN, w, -1, 1)
		c.want = sumExactLocal(w, c.x)
	case wire.OpDotExact:
		c.x = expansions(rng, bulkReduceN, w, -1, 1)
		c.y = expansions(rng, bulkReduceN, w, -1, 1)
		c.want = dotExactLocal(w, c.x, c.y)
	default:
		lo, hi := band(k.op)
		if k.op == wire.OpLog {
			lo, hi = 1e-3, 1e3
		}
		c.x = expansions(rng, bulkMathN, w, lo, hi)
		c.want = evalOp(k.op, w, bulkMathN, c.x, nil)
	}
	return c
}

// bulkPool returns variants input sets of every bulk kind, in round
// order.
func bulkPool(seed int64, stream, variants int) []bulkCall {
	rng := connSeed(seed, stream)
	kinds := bulkKinds()
	calls := make([]bulkCall, 0, variants*len(kinds))
	for v := 0; v < variants; v++ {
		for _, k := range kinds {
			calls = append(calls, makeBulkCall(rng, k))
		}
	}
	return calls
}

func gemmLocal(w int, a, b []float64, n int) []float64 {
	switch w {
	case 2:
		c := make([]mf.Float64x2, n*n)
		blas.GemmBlockedF2Parallel(wire.Unpack2(a), wire.Unpack2(b), c, n, 1)
		return wire.Pack2(c)
	case 3:
		c := make([]mf.Float64x3, n*n)
		blas.GemmBlockedF3Parallel(wire.Unpack3(a), wire.Unpack3(b), c, n, 1)
		return wire.Pack3(c)
	default:
		c := make([]mf.Float64x4, n*n)
		blas.GemmBlockedF4Parallel(wire.Unpack4(a), wire.Unpack4(b), c, n, 1)
		return wire.Pack4(c)
	}
}

func gemvLocal(w int, a []float64, n, m int, x []float64) []float64 {
	switch w {
	case 2:
		y := make([]mf.Float64x2, n)
		blas.GemvTiledF2Parallel(wire.Unpack2(a), n, m, wire.Unpack2(x), y, 1)
		return wire.Pack2(y)
	case 3:
		y := make([]mf.Float64x3, n)
		blas.GemvTiledF3Parallel(wire.Unpack3(a), n, m, wire.Unpack3(x), y, 1)
		return wire.Pack3(y)
	default:
		y := make([]mf.Float64x4, n)
		blas.GemvTiledF4Parallel(wire.Unpack4(a), n, m, wire.Unpack4(x), y, 1)
		return wire.Pack4(y)
	}
}

func sumExactLocal(w int, x []float64) []float64 {
	switch w {
	case 2:
		r := exact.Sum2(wire.Unpack2(x))
		return r[:]
	case 3:
		r := exact.Sum3(wire.Unpack3(x))
		return r[:]
	default:
		r := exact.Sum4(wire.Unpack4(x))
		return r[:]
	}
}

func dotExactLocal(w int, x, y []float64) []float64 {
	switch w {
	case 2:
		r := exact.Dot2(wire.Unpack2(x), wire.Unpack2(y))
		return r[:]
	case 3:
		r := exact.Dot3(wire.Unpack3(x), wire.Unpack3(y))
		return r[:]
	default:
		r := exact.Dot4(wire.Unpack4(x), wire.Unpack4(y))
		return r[:]
	}
}
