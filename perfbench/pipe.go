package main

// Pipelined raw-wire load (serve-small, proxy-mixed): per connection one
// writer goroutine keeps up to depth requests in flight and one reader
// goroutine checks every response. The load is closed: a request is sent
// only when a reply has freed its pipeline slot.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"multifloats/serve/wire"
)

// stream maps a connection's request sequence numbers (1, 2, …) to
// requests. Every hotEvery-th request repeats the hot set; the others
// walk pool in order, wrapping when it runs out. The mapping is a pure
// function of the sequence number, so the bytes a connection sends
// depend only on the seed. A later run on the same stream can resume
// after the requests an earlier one sent (skip), so that pool entries
// are not repeated.
type stream struct {
	pool     []smallReq
	hot      []smallReq
	hotEvery uint64 // 0: no hot set
	skip     uint64
}

func (s *stream) at(seq uint64) (r *smallReq, hot bool) {
	n := seq + s.skip
	if s.hotEvery > 0 && n%s.hotEvery == 0 {
		return &s.hot[(n/s.hotEvery)%uint64(len(s.hot))], true
	}
	return &s.pool[s.poolIndex(n)%uint64(len(s.pool))], false
}

// poolIndex is the pool position (before wrapping) of the n-th request.
func (s *stream) poolIndex(n uint64) uint64 {
	i := n - 1
	if s.hotEvery > 0 {
		i -= i / s.hotEvery
	}
	return i
}

const (
	slotRing   = 1 << 16 // in-flight bookkeeping ring per connection; > any depth
	drainGrace = 5 * time.Second
)

type pipeConn struct {
	idx    int
	src    *stream
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	sem    chan struct{}
	slots  []atomic.Int64 // send time + 1 (ns since epoch) by seq, 0 = free
	encEnd []atomic.Int64 // encode end per slot, when tracing
	out    atomic.Int64   // requests in flight
	done   atomic.Bool    // writer has sent its last request
	rdone  chan struct{}  // closed when the reader stops
	sent   atomic.Uint64

	attempted, failed int64
	okInWindow        int64
	lat               *latLog
	hitLat, missLat   *latLog
	failures          map[string]int64
	werr, rerr        error // writer's and reader's own failure
}

// runPipe drives one connection per stream at the given depth until
// dur elapses (dur > 0) or each connection has sent limit requests.
func runPipe(addr string, streams []*stream, depth int, dur time.Duration, limit uint64, tr *tracer) (*outcome, error) {
	epoch := time.Now()
	since := func() int64 { return int64(time.Since(epoch)) }
	stop := make(chan struct{})
	var windowEnd atomic.Int64
	windowEnd.Store(1 << 62)

	conns := make([]*pipeConn, len(streams))
	for i, s := range streams {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			for _, c := range conns[:i] {
				c.nc.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		nc.(*net.TCPConn).SetNoDelay(true)
		conns[i] = &pipeConn{
			idx: i, src: s, nc: nc,
			br:       bufio.NewReaderSize(nc, 1<<16),
			bw:       bufio.NewWriterSize(nc, 1<<16),
			sem:      make(chan struct{}, depth),
			slots:    make([]atomic.Int64, slotRing),
			rdone:    make(chan struct{}),
			lat:      newLatLog(dur / statWindows),
			failures: make(map[string]int64),
		}
		if tr != nil {
			conns[i].encEnd = make([]atomic.Int64, slotRing)
		}
		if s.hotEvery > 0 {
			conns[i].hitLat = newLatLog(0)
			conns[i].missLat = newLatLog(0)
		}
	}

	var wg sync.WaitGroup
	for _, c := range conns {
		wrec, rrec := tr.recorder(), tr.recorder()
		wg.Add(2)
		go func() { defer wg.Done(); c.write(since, stop, limit, wrec) }()
		go func() { defer wg.Done(); c.read(since, &windowEnd, rrec) }()
	}
	if dur > 0 {
		time.Sleep(dur)
		windowEnd.Store(since())
		close(stop)
	}
	wg.Wait()

	res := &outcome{failures: make(map[string]int64)}
	if dur > 0 {
		res.window = time.Duration(windowEnd.Load())
	}
	var errs []error
	for _, c := range conns {
		c.nc.Close()
		res.attempted += c.attempted
		res.failed += c.failed
		res.ok += c.okInWindow
		res.lat = append(res.lat, c.lat)
		if c.hitLat != nil {
			res.hitLat = append(res.hitLat, c.hitLat)
			res.missLat = append(res.missLat, c.missLat)
		}
		res.sent = append(res.sent, c.sent.Load())
		for k, v := range c.failures {
			res.failures[k] += v
		}
		if err := errors.Join(c.werr, c.rerr); err != nil {
			errs = append(errs, fmt.Errorf("conn %d: %w", c.idx, err))
		}
	}
	res.notes = map[string]any{"requests_sent_per_conn": res.sent}
	return res, errors.Join(errs...)
}

func opKey(conn int, seq uint64) uint64 { return uint64(conn)<<48 | seq }

func (c *pipeConn) flush(since func() int64, rec *recorder) error {
	var t0 int64
	if rec != nil {
		t0 = since()
	}
	err := c.bw.Flush()
	if rec != nil {
		rec.add(spanWriteFlush, spanNone, 0, t0, since())
	}
	return err
}

func (c *pipeConn) write(since func() int64, stop <-chan struct{}, limit uint64, rec *recorder) {
	defer func() {
		c.done.Store(true)
		// Wake the reader: at once if nothing is in flight, otherwise
		// after the drain grace if replies stop coming.
		if c.out.Load() == 0 {
			c.nc.SetReadDeadline(time.Now())
		} else {
			c.nc.SetReadDeadline(time.Now().Add(drainGrace))
		}
	}()
	var req wire.Request
	for seq := uint64(1); limit == 0 || seq <= limit; seq++ {
		select {
		case c.sem <- struct{}{}:
		default:
			// Flush before blocking, so buffered requests reach the
			// server while the writer waits for a free slot.
			if err := c.flush(since, rec); err != nil {
				c.werr = fmt.Errorf("flush: %w", err)
				return
			}
			select {
			case c.sem <- struct{}{}:
			case <-stop:
				return
			case <-c.rdone:
				return
			}
		}
		select {
		case <-stop:
			<-c.sem
			c.werr = c.flush(since, rec)
			return
		default:
		}
		r, _ := c.src.at(seq)
		slot := &c.slots[seq&(slotRing-1)]
		for slot.Load() != 0 {
			// A request 64k sequence numbers older is still unanswered;
			// wait for it rather than lose its bookkeeping.
			time.Sleep(50 * time.Microsecond)
		}
		start := since()
		slot.Store(start + 1)
		c.out.Add(1)
		c.attempted++
		c.sent.Store(seq)
		req = r.request(seq)
		if err := wire.WriteRequest(c.bw, &req); err != nil {
			c.werr = fmt.Errorf("write: %w", err)
			return
		}
		if rec != nil {
			end := since()
			rec.add(spanEncode, spanOp, opKey(c.idx, seq), start, end)
			c.encEnd[seq&(slotRing-1)].Store(end)
		}
	}
	c.werr = c.flush(since, rec)
}

func (c *pipeConn) fail(reason string) {
	c.failed++
	c.failures[reason]++
}

func (c *pipeConn) read(since func() int64, windowEnd *atomic.Int64, rec *recorder) {
	defer func() {
		close(c.rdone)
		// Whatever is still in flight when reading stops never completed.
		if n := c.out.Load(); n > 0 {
			c.failed += n
			c.failures["unanswered"] += n
		}
	}()
	for {
		if c.done.Load() && c.out.Load() == 0 {
			return
		}
		var awaitEnd int64
		if rec != nil {
			if _, err := c.br.Peek(1); err != nil {
				c.readErr(err)
				return
			}
			awaitEnd = since()
		}
		resp, err := wire.ReadResponse(c.br)
		if err != nil {
			c.readErr(err)
			return
		}
		recv := since()
		slotIdx := resp.ID & (slotRing - 1)
		sent := c.slots[slotIdx].Swap(0)
		if sent == 0 || resp.ID == 0 || resp.ID > c.sent.Load() {
			c.fail("unknown-id")
			c.rerr = fmt.Errorf("response for unknown request id %d", resp.ID)
			return
		}
		start := sent - 1
		r, hot := c.src.at(resp.ID)
		ok := resp.Status == wire.StatusOK && sameBits(resp.Data, r.want)
		switch {
		case ok:
			if recv <= windowEnd.Load() {
				c.okInWindow++
			}
		case resp.Status != wire.StatusOK:
			c.fail(resp.Status.String())
		default:
			c.fail("wrong-bits")
		}
		lat := time.Duration(recv - start)
		c.lat.add(recv, lat)
		if c.src.hotEvery > 0 {
			if hot {
				c.hitLat.add(recv, lat)
			} else {
				c.missLat.add(recv, lat)
			}
		}
		if rec != nil {
			key := opKey(c.idx, resp.ID)
			encEnd := c.encEnd[slotIdx].Load()
			verEnd := since()
			rec.add(spanAwait, spanOp, key, encEnd, awaitEnd)
			rec.add(spanDecode, spanOp, key, awaitEnd, recv)
			rec.add(spanVerify, spanOp, key, recv, verEnd)
			rec.add(spanOp, spanNone, key, start, verEnd)
		}
		c.out.Add(-1)
		<-c.sem
	}
}

func (c *pipeConn) readErr(err error) {
	var ne net.Error
	if c.done.Load() && errors.As(err, &ne) && ne.Timeout() {
		return // drained, or drain grace expired: the deferred count applies
	}
	c.rerr = fmt.Errorf("read: %w", err)
}
