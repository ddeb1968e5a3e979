package main

// The serve-bulk load: callers on the typed serve/client API, one call
// in flight each, cycling through GEMM, GEMV, MathSlice slabs and
// multi-chunk exact reductions.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"multifloats/serve/client"
	"multifloats/serve/wire"
)

// doBulk issues one call through the typed API and returns its result
// as a component slab.
func doBulk(ctx context.Context, cl *client.Client, c *bulkCall) ([]float64, error) {
	w := c.kind.width
	switch c.kind.op {
	case wire.OpGemm:
		switch w {
		case 2:
			r, err := cl.Gemm2(ctx, wire.Unpack2(c.x), wire.Unpack2(c.y), bulkGemmN)
			return flat(r), err
		case 3:
			r, err := cl.Gemm3(ctx, wire.Unpack3(c.x), wire.Unpack3(c.y), bulkGemmN)
			return flat(r), err
		default:
			r, err := cl.Gemm4(ctx, wire.Unpack4(c.x), wire.Unpack4(c.y), bulkGemmN)
			return flat(r), err
		}
	case wire.OpGemv:
		switch w {
		case 2:
			r, err := cl.Gemv2(ctx, wire.Unpack2(c.x), bulkGemvN, bulkGemvN, wire.Unpack2(c.y))
			return flat(r), err
		case 3:
			r, err := cl.Gemv3(ctx, wire.Unpack3(c.x), bulkGemvN, bulkGemvN, wire.Unpack3(c.y))
			return flat(r), err
		default:
			r, err := cl.Gemv4(ctx, wire.Unpack4(c.x), bulkGemvN, bulkGemvN, wire.Unpack4(c.y))
			return flat(r), err
		}
	case wire.OpSumExact:
		switch w {
		case 2:
			r, err := cl.SumExact2(ctx, wire.Unpack2(c.x))
			return r[:], err
		case 3:
			r, err := cl.SumExact3(ctx, wire.Unpack3(c.x))
			return r[:], err
		default:
			r, err := cl.SumExact4(ctx, wire.Unpack4(c.x))
			return r[:], err
		}
	case wire.OpDotExact:
		switch w {
		case 2:
			r, err := cl.DotExact2(ctx, wire.Unpack2(c.x), wire.Unpack2(c.y))
			return r[:], err
		case 3:
			r, err := cl.DotExact3(ctx, wire.Unpack3(c.x), wire.Unpack3(c.y))
			return r[:], err
		default:
			r, err := cl.DotExact4(ctx, wire.Unpack4(c.x), wire.Unpack4(c.y))
			return r[:], err
		}
	default:
		switch w {
		case 2:
			r, err := cl.MathSlice2(ctx, c.kind.op, wire.Unpack2(c.x), nil)
			return flat(r), err
		case 3:
			r, err := cl.MathSlice3(ctx, c.kind.op, wire.Unpack3(c.x), nil)
			return flat(r), err
		default:
			r, err := cl.MathSlice4(ctx, c.kind.op, wire.Unpack4(c.x), nil)
			return flat(r), err
		}
	}
}

// runBulk runs one caller per pool, each with one call in flight, until
// dur elapses (dur > 0) or each caller has made limit calls.
func runBulk(cl *client.Client, pools [][]bulkCall, dur time.Duration, limit int, tr *tracer) *outcome {
	start := time.Now()
	deadline := start.Add(dur)
	type callerOut struct {
		attempted, failed, ok int64
		lat                   *latLog
		failures              map[string]int64
	}
	outs := make([]callerOut, len(pools))
	var wg sync.WaitGroup
	for ci, pool := range pools {
		rec := tr.recorder()
		o := &outs[ci]
		o.lat = newLatLog(dur / statWindows)
		o.failures = make(map[string]int64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				if dur > 0 && !time.Now().Before(deadline) || dur == 0 && i == limit {
					return
				}
				c := &pool[i%len(pool)]
				t0 := time.Now()
				got, err := doBulk(ctx, cl, c)
				t1 := time.Now()
				o.attempted++
				switch {
				case err != nil:
					o.failed++
					o.failures[bulkErrClass(err)]++
				case !sameBits(got, c.want):
					o.failed++
					o.failures["wrong-bits:"+c.kind.name]++
				case t1.Before(deadline) || dur == 0:
					o.ok++
				}
				if rec != nil {
					key := opKey(ci, uint64(i+1))
					s, e, v := int64(t0.Sub(rec.epoch)), int64(t1.Sub(rec.epoch)), rec.now()
					rec.add(spanClientCall, spanOp, key, s, e)
					rec.add(spanVerify, spanOp, key, e, v)
					rec.add(spanOp, spanNone, key, s, v)
				}
				o.lat.add(int64(t1.Sub(start)), t1.Sub(t0))
			}
		}()
	}
	wg.Wait()
	res := &outcome{window: dur, failures: make(map[string]int64)}
	for _, o := range outs {
		res.attempted += o.attempted
		res.failed += o.failed
		res.ok += o.ok
		res.lat = append(res.lat, o.lat)
		for k, v := range o.failures {
			res.failures[k] += v
		}
	}
	return res
}

func bulkErrClass(err error) string {
	for _, e := range []error{client.ErrOverloaded, client.ErrDeadlineExceeded, client.ErrBadRequest,
		client.ErrServer, client.ErrIntegrity, client.ErrClosed} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	return fmt.Sprintf("transport: %v", err)
}
