// Package wiresrv is the connection-server core of mfserved
// (serve/server) and mfproxy (serve/proxy): the one place that decides
// how a wire-v2 listener accepts, times out, classifies failures, drains
// and counts. It owns the listener lifecycle, the per-connection read
// loop, the response writers, the shared counters (metrics.go) and the
// daemons' main loop (daemon.go). What differs between the daemons is a
// Handler the core calls once per frame on the connection's reader
// goroutine.
package wiresrv

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"multifloats/serve/wire"
)

// MaxOpenReductions caps concurrent streaming reductions per connection
// so a hostile peer cannot pin unbounded state by opening streams it
// never finishes.
const MaxOpenReductions = 256

// Handler serves one connection's frames.
type Handler interface {
	// Handle serves one CRC-verified, validated request frame on the
	// connection's reader goroutine. A non-nil return closes the
	// connection.
	Handle(req *wire.Request) error
	// Close runs once on the reader goroutine after the read loop ends.
	Close()
}

// Config tunes a Server.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// IdleTimeout bounds the wait for a connection's next complete frame,
	// covering idle gaps and mid-frame stalls (0 takes the default, 2
	// minutes; negative disables it).
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write+flush (0 takes the default,
	// 30 seconds; negative disables it).
	WriteTimeout time.Duration
	// NewHandler builds the handler for an accepted connection.
	NewHandler func(*Conn) Handler
	// Drain, if set, runs during Shutdown once the listener is closed and
	// new frames are fenced off, before readers are unblocked.
	Drain func()
	// Vars is the expvar namespace the counters are mirrored into.
	Vars *Vars
}

// Server is the shared listener and connection set.
type Server struct {
	cfg   Config
	stats *Counters

	ctx    context.Context // parent of every request context
	cancel context.CancelFunc

	// mu fences ln, conns and the accept path against Shutdown: a
	// connection is registered (and counted in connWG) only while
	// draining is false under mu, so Shutdown's Wait sees every reader.
	mu     sync.Mutex
	ln     net.Listener
	conns  map[*Conn]struct{}
	connWG sync.WaitGroup

	// draining is written under mu but read lock-free on every frame.
	draining atomic.Bool
}

// New returns an unstarted server counting into stats.
func New(cfg Config, stats *Counters) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	stats.vars = cfg.Vars
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:    cfg,
		stats:  stats,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[*Conn]struct{}),
	}
}

// Listen binds the configured address. Call before Serve; Addr is valid
// afterwards (useful with ":0").
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Shutdown (or a fatal listener error).
// It returns nil after a clean shutdown.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
		ln = s.ln
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		c := &Conn{
			srv: s,
			nc:  nc,
			br:  bufio.NewReaderSize(nc, 1<<16),
			bw:  bufio.NewWriterSize(nc, 1<<16),
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.stats.connOpen()
		c.h = s.cfg.NewHandler(c)
		go c.serve()
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// ServeListener serves on a caller-provided listener instead of binding
// the configured address — the hook for wrapping the accept path (e.g.
// internal/netfault's fault-injecting listener, or a TLS listener). The
// server takes ownership: Shutdown closes it. Losing the race to a
// concurrent Shutdown means the server was stopped before it started:
// the listener is closed and ServeListener returns nil.
func (s *Server) ServeListener(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	return s.Serve()
}

// Shutdown drains gracefully: stop accepting, fence new frames (they
// are answered StatusOverloaded), run Config.Drain, then unblock
// connection readers and wait for them up to ctx's deadline. Connections
// still open afterwards are closed. Calls after the first return nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil
	}
	s.draining.Store(true)
	ln := s.ln
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	if s.cfg.Drain != nil {
		s.cfg.Drain()
	}
	// Unblock readers parked in Read; draining readers exit on the
	// timeout error instead of counting it as an idle timeout.
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.cancel()
	s.mu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	return err
}

// Conn is one accepted connection. Handlers embed it for its writers.
type Conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	h   Handler

	// rArmed/wArmed are when the read/write deadlines were last pushed
	// out. Deadline arming is coarse: SetReadDeadline/SetWriteDeadline go
	// through the runtime poller's timer bookkeeping, which is far too
	// expensive to pay per frame at millions of frames per second, so the
	// deadline is re-armed only once it is stale by a quarter of the
	// budget. A peer that goes silent is therefore cut off after between
	// 0.75× and 1× the configured timeout — the guarantee never loosens.
	rArmed time.Time

	wmu    sync.Mutex
	bw     *bufio.Writer
	wArmed time.Time
}

var noCancel context.CancelFunc = func() {}

// RequestContext returns the context a request runs under: cancelled
// when Shutdown finishes, and bounded by the request's deadline if it
// carries one. Always call the returned cancel.
func (c *Conn) RequestContext(req *wire.Request) (context.Context, context.CancelFunc) {
	if req.Deadline.IsZero() {
		return c.srv.ctx, noCancel
	}
	return context.WithDeadline(c.srv.ctx, req.Deadline)
}

func (c *Conn) serve() {
	s := c.srv
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.stats.connClose()
		c.nc.Close()
		c.h.Close()
		s.connWG.Done()
	}()
	for {
		// The deadline covers the whole frame read, so a peer that
		// trickles a frame one byte at a time is bounded exactly like a
		// silent one.
		if d := s.cfg.IdleTimeout; d > 0 {
			if now := time.Now(); now.Sub(c.rArmed) > d/4 {
				c.rArmed = now
				c.nc.SetReadDeadline(now.Add(d))
				// Shutdown unblocks readers with an expired deadline; if it
				// ran between the last check and this re-arm, restore that
				// deadline rather than parking for a whole idle period.
				if s.draining.Load() {
					c.nc.SetReadDeadline(now)
				}
			}
		}
		req, err := wire.ReadRequest(c.br)
		if err != nil {
			s.readFailed(err)
			return
		}
		s.stats.reqIn()
		if s.draining.Load() {
			c.WriteResponse(&wire.Response{ID: req.ID, Status: wire.StatusOverloaded, RetryAfterMs: 1000})
			return
		}
		if req.Validate() != nil {
			s.stats.ProtocolError()
			err = c.WriteResponse(&wire.Response{ID: req.ID, Status: wire.StatusBadRequest})
		} else {
			err = c.h.Handle(req)
		}
		if err != nil {
			return
		}
	}
}

// readFailed counts the recognizable classes of a failed frame read.
// EOF and peer resets are normal disconnects; framing errors poison the
// stream; a checksum mismatch means the bytes cannot be trusted at all.
// Every case ends the connection.
func (s *Server) readFailed(err error) {
	st := s.stats
	switch {
	case errors.Is(err, wire.ErrChecksum):
		st.checksumErr()
	case errors.Is(err, wire.ErrMagic), errors.Is(err, wire.ErrVersion),
		errors.Is(err, wire.ErrFrameType), errors.Is(err, wire.ErrTooLarge),
		errors.Is(err, wire.ErrMalformed):
		st.ProtocolError()
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && !s.draining.Load() {
			st.idleTimeout()
		}
	}
}

// WriteResponse writes resp and flushes; see WriteResponses.
func (c *Conn) WriteResponse(resp *wire.Response) error { return c.WriteResponses(*resp) }

// WriteResponses writes a group of responses and flushes once: one lock
// hold, one counter update, one syscall for the whole group. Write
// errors are not otherwise handled (the reader goroutine observes the
// broken connection and tears down); the error return only signals
// "stop serving this conn".
func (c *Conn) WriteResponses(resps ...wire.Response) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if d := c.srv.cfg.WriteTimeout; d > 0 {
		if now := time.Now(); now.Sub(c.wArmed) > d/4 {
			c.wArmed = now
			c.nc.SetWriteDeadline(now.Add(d))
		}
	}
	for i := range resps {
		if err := wire.WriteResponse(c.bw, &resps[i]); err != nil {
			c.srv.stats.respOut(int64(i))
			return fmt.Errorf("write response: %w", err)
		}
	}
	c.srv.stats.respOut(int64(len(resps)))
	return c.bw.Flush()
}
