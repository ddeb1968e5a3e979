package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multifloats/serve/server"
	"multifloats/serve/wire"
)

// frameStream encodes the first n requests a connection sends for s,
// exactly as the pipelined writer frames them.
func frameStream(t *testing.T, s *stream, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	for seq := uint64(1); seq <= uint64(n); seq++ {
		r, _ := s.at(seq)
		req := r.request(seq)
		if err := wire.WriteRequest(&b, &req); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func smallStreams(seed int64) []*stream {
	w := &smallWL{}
	w.prepare(seed, 1)
	p := &proxyWL{}
	p.prepare(seed, 1)
	return append(w.streams, p.streams...)
}

// TestSeededGeneration: the same seed gives byte-identical payload
// streams; another seed changes operand values but not the op mix, the
// widths or any size.
func TestSeededGeneration(t *testing.T) {
	const n = 3000
	a, b, c := smallStreams(7), smallStreams(7), smallStreams(8)
	for i := range a {
		fa, fb, fc := frameStream(t, a[i], n), frameStream(t, b[i], n), frameStream(t, c[i], n)
		if !bytes.Equal(fa, fb) {
			t.Fatalf("stream %d: same seed, different bytes", i)
		}
		if bytes.Equal(fa, fc) {
			t.Fatalf("stream %d: different seeds, identical bytes", i)
		}
		if len(fa) != len(fc) {
			t.Fatalf("stream %d: seed changed the stream length %d → %d", i, len(fa), len(fc))
		}
		for seq := uint64(1); seq <= n; seq++ {
			ra, ha := a[i].at(seq)
			rc, hc := c[i].at(seq)
			if ra.op != rc.op || ra.width != rc.width || len(ra.x) != len(rc.x) || len(ra.y) != len(rc.y) || ha != hc {
				t.Fatalf("stream %d request %d: seed changed the op mix", i, seq)
			}
		}
	}

	pa, pc := bulkPool(7, 100, 2), bulkPool(8, 100, 2)
	for i := range pa {
		if pa[i].kind != pc[i].kind || len(pa[i].x) != len(pc[i].x) || len(pa[i].y) != len(pc[i].y) {
			t.Fatalf("bulk call %d: seed changed the call mix or sizes", i)
		}
		if sameBits(pa[i].x, pc[i].x) {
			t.Fatalf("bulk call %d: seed did not change the operands", i)
		}
		if !sameBits(pa[i].x, bulkPool(7, 100, 2)[i].x) {
			t.Fatalf("bulk call %d: same seed, different operands", i)
		}
	}

	ka, kc := kernelCalls(7), kernelCalls(8)
	if len(ka) != len(kc) {
		t.Fatalf("kernel schedule length changed with the seed: %d vs %d", len(ka), len(kc))
	}
	for i := range ka {
		if ka[i].name != kc[i].name {
			t.Fatalf("kernel call %d: %s vs %s", i, ka[i].name, kc[i].name)
		}
	}
}

// flipRelay forwards frames between clients and a server, flipping one
// bit of the result in the flipAt-th response it relays.
type flipRelay struct {
	ln       net.Listener
	upstream string
	flipAt   int64
	seen     atomic.Int64
	wg       sync.WaitGroup
}

func (f *flipRelay) serve() {
	for {
		down, err := f.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", f.upstream)
		if err != nil {
			down.Close()
			return
		}
		f.wg.Add(2)
		go func() {
			defer f.wg.Done()
			io.Copy(up, down)
			up.Close()
		}()
		go func() {
			defer f.wg.Done()
			defer down.Close()
			br, bw := bufio.NewReader(up), bufio.NewWriter(down)
			for {
				resp, err := wire.ReadResponse(br)
				if err != nil {
					return
				}
				if f.seen.Add(1) == f.flipAt {
					resp.Data[0] = math.Float64frombits(math.Float64bits(resp.Data[0]) ^ 1<<20)
				}
				// WriteResponse reseals the CRC, so the flip reaches the
				// checker as a well-formed frame.
				if wire.WriteResponse(bw, resp) != nil || bw.Flush() != nil {
					return
				}
			}
		}()
	}
}

// TestFlippedBitIsCaught: one flipped bit in one response is counted as
// exactly one failed op.
func TestFlippedBitIsCaught(t *testing.T) {
	srv := server.New(server.Config{})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown(context.Background())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relay := &flipRelay{ln: ln, upstream: srv.Addr().String(), flipAt: 777}
	go relay.serve()
	defer func() { ln.Close(); relay.wg.Wait() }()

	streams := smallStreams(3)[:2]
	const perConn = 2000
	res, err := runPipe(ln.Addr().String(), streams, 16, 0, perConn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 2*perConn || res.failed != 1 || res.failures["wrong-bits"] != 1 {
		t.Fatalf("attempted %d failed %d (%v); want %d attempted, exactly 1 wrong-bits failure",
			res.attempted, res.failed, res.failures, 2*perConn)
	}

	// The same load without the relay passes clean.
	res, err = runPipe(srv.Addr().String(), streams, 16, 0, perConn, nil)
	if err != nil || res.failed != 0 {
		t.Fatalf("direct run: failed %d (%v), err %v", res.failed, res.failures, err)
	}
}

// TestKernelCheckCatchesFlip: a kernel output with one flipped bit fails
// its check.
func TestKernelCheckCatchesFlip(t *testing.T) {
	for _, k := range kernelCalls(5)[:40] {
		k.run()
		if !k.check() {
			t.Fatalf("%s: clean output failed its check", k.name)
		}
	}
	out := []float64{1, 2}
	k := fixedCall("probe", out, nop, func() {})
	out[1] = math.Float64frombits(math.Float64bits(out[1]) ^ 1)
	if k.check() {
		t.Fatal("flipped bit not caught")
	}
}

// TestWindowStats checks the histogram buckets and the per-window
// medians on a synthetic log.
func TestWindowStats(t *testing.T) {
	for _, ns := range []uint64{0, 1, 1023, 1024, 1025, 4095, 50_000, 1 << 40, math.MaxUint64} {
		b := bucketOf(ns)
		if mid := bucketMid(b); math.Abs(mid-float64(ns)) > float64(ns)/1024+0.5 {
			t.Errorf("%d ns: bucket %d midpoint %v", ns, b, mid)
		}
		if b < 0 || b >= nBuckets || (ns > 0 && bucketOf(ns-1) > b) {
			t.Errorf("%d ns: bucket %d out of order or range", ns, b)
		}
	}
	l := newLatLog(time.Second)
	for w := 0; w < statWindows; w++ {
		for i := 0; i < 100; i++ {
			d := time.Duration(i+1) * time.Microsecond
			if w == 0 {
				d *= 10 // one slow window does not move the medians
			}
			l.add(int64(w)*int64(time.Second)+int64(i), d)
		}
	}
	l.add(int64(statWindows)*int64(time.Second), time.Hour) // after the run: no window
	rate, p50, p99, minS := windowStats([]*latLog{l}, time.Second)
	near := func(got, want float64) bool { return math.Abs(got-want) <= want/1024 }
	if rate != 100 || !near(p50, 50e3) || !near(p99, 99e3) || minS != 100 {
		t.Fatalf("rate %v p50 %v p99 %v min samples %d", rate, p50, p99, minS)
	}
	if n := all([]*latLog{l}).total(); n != 100*statWindows+1 {
		t.Fatalf("all() holds %d ops", n)
	}
}
