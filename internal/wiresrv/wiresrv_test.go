package wiresrv_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"expvar"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"multifloats/internal/testutil"
	"multifloats/internal/wiresrv"
	"multifloats/serve/proxy"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

// daemon is the public lifecycle both server.Server and proxy.Proxy get
// from the core.
type daemon interface {
	Listen() error
	Addr() net.Addr
	Serve() error
	ServeListener(net.Listener) error
	Shutdown(context.Context) error
}

// targets are the two daemons built on the core. backend, when set, is
// the proxy's upstream; otherwise it points at a port nobody serves
// (backend clients dial lazily, and these tests never forward).
var targets = []struct {
	name string
	make func(t *testing.T, idle time.Duration, backend string) (daemon, *wiresrv.Counters)
}{
	{"server", func(t *testing.T, idle time.Duration, _ string) (daemon, *wiresrv.Counters) {
		s := server.New(server.Config{IdleTimeout: idle})
		return s, &s.Stats().Counters
	}},
	{"proxy", func(t *testing.T, idle time.Duration, backend string) (daemon, *wiresrv.Counters) {
		if backend == "" {
			backend = "127.0.0.1:1"
		}
		p, err := proxy.New(proxy.Config{Backends: []string{backend}, IdleTimeout: idle})
		if err != nil {
			t.Fatalf("proxy.New: %v", err)
		}
		return p, &p.Stats().Counters
	}},
}

// start runs d's accept loop and registers a clean shutdown.
func start(t *testing.T, d daemon) {
	t.Helper()
	if err := d.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
}

func mulFrame(t *testing.T, id uint64) []byte {
	t.Helper()
	var b bytes.Buffer
	req := &wire.Request{ID: id, Op: wire.OpMul, Width: 2, Count: 1, X: []float64{3, 0}, Y: []float64{5, 0}}
	if err := wire.WriteRequest(&b, req); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	return b.Bytes()
}

func dial(t *testing.T, addr net.Addr) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	return nc
}

// waitClosed reads until the daemon closes the connection.
func waitClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	if _, err := io.Copy(io.Discard, nc); err != nil {
		t.Fatalf("connection not closed by the daemon: %v", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeListenerAfterShutdown: a ServeListener that loses the race to
// Shutdown must not accept on a listener nobody will ever close.
func TestServeListenerAfterShutdown(t *testing.T) {
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			d, _ := tg.make(t, 0, "")
			if err := d.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if err := d.ServeListener(ln); err != nil {
				t.Fatalf("ServeListener after Shutdown = %v, want nil", err)
			}
			if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("listener still open after ServeListener lost to Shutdown: Accept err = %v", err)
			}
		})
	}
}

// TestDialRaceShutdown races a dial loop against Shutdown: every
// accepted connection's reader must be accounted for, so Shutdown
// returns only after the last one has finished and no goroutine
// survives the daemon.
func TestDialRaceShutdown(t *testing.T) {
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			d, st := tg.make(t, 0, "")
			if err := d.Listen(); err != nil {
				t.Fatal(err)
			}
			addr := d.Addr().String()
			served := make(chan error, 1)
			go func() { served <- d.Serve() }()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			defer func() {
				close(stop)
				wg.Wait()
			}()
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var open []net.Conn
					defer func() {
						for _, nc := range open {
							nc.Close()
						}
					}()
					for {
						select {
						case <-stop:
							return
						default:
						}
						nc, err := net.DialTimeout("tcp", addr, time.Second)
						if err != nil {
							time.Sleep(time.Millisecond)
							continue
						}
						open = append(open, nc)
					}
				}()
			}
			waitFor(t, "connections", func() bool { return st.ActiveConns.Load() >= 8 })
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := d.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if n := st.ActiveConns.Load(); n != 0 {
				t.Errorf("Shutdown returned with %d connection readers still running", n)
			}
			if err := <-served; err != nil {
				t.Fatalf("Serve: %v", err)
			}
		})
	}
}

// TestIdleTimeoutCounted: a peer that never completes a frame is cut
// off and counted.
func TestIdleTimeoutCounted(t *testing.T) {
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			d, st := tg.make(t, 100*time.Millisecond, "")
			start(t, d)
			nc := dial(t, d.Addr())
			nc.Write(mulFrame(t, 1)[:10]) // a partial header, then silence
			waitClosed(t, nc)
			waitFor(t, "IdleTimeouts", func() bool { return st.IdleTimeouts.Load() == 1 })
		})
	}
}

// TestChecksumErrorCounted: a frame whose CRC32C trailer does not match
// its bytes ends the connection and is counted.
func TestChecksumErrorCounted(t *testing.T) {
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			d, st := tg.make(t, 0, "")
			start(t, d)
			nc := dial(t, d.Addr())
			frame := mulFrame(t, 1)
			frame[len(frame)-5] ^= 0x01 // last operand byte, before the trailer
			nc.Write(frame)
			waitClosed(t, nc)
			waitFor(t, "ChecksumErrors", func() bool { return st.ChecksumErrors.Load() == 1 })
			if n := st.Requests.Load(); n != 0 {
				t.Fatalf("Requests = %d after a corrupted frame, want 0", n)
			}
		})
	}
}

// gatedListener hands out connections whose reads wait until the
// listener is closed — which Shutdown does only after fencing new
// frames — and ignore read deadlines, so a frame sent before Shutdown is
// deterministically read during the drain.
type gatedListener struct {
	net.Listener
	closed chan struct{}
	once   sync.Once
}

func (l *gatedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: nc, gate: l.closed}, nil
}

func (l *gatedListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return l.Listener.Close()
}

type gatedConn struct {
	net.Conn
	gate <-chan struct{}
}

func (c *gatedConn) Read(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Read(p)
}

func (c *gatedConn) SetReadDeadline(time.Time) error { return nil }

// TestDrainAnswersOverloaded: a frame that arrives during the drain is
// answered StatusOverloaded with a one-second retry hint.
func TestDrainAnswersOverloaded(t *testing.T) {
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			d, st := tg.make(t, 0, "")
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- d.ServeListener(&gatedListener{Listener: ln, closed: make(chan struct{})}) }()

			nc := dial(t, ln.Addr())
			nc.Write(mulFrame(t, 42))
			waitFor(t, "the connection to register", func() bool { return st.ActiveConns.Load() == 1 })
			shut := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				shut <- d.Shutdown(ctx)
			}()

			resp, err := wire.ReadResponse(bufio.NewReader(nc))
			if err != nil {
				t.Fatalf("ReadResponse: %v", err)
			}
			if resp.ID != 42 || resp.Status != wire.StatusOverloaded || resp.RetryAfterMs != 1000 {
				t.Fatalf("drain answer = id %d %v retry %dms, want id 42 %v retry 1000ms",
					resp.ID, resp.Status, resp.RetryAfterMs, wire.StatusOverloaded)
			}
			waitClosed(t, nc)
			if err := <-shut; err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if err := <-served; err != nil {
				t.Fatalf("Serve: %v", err)
			}
		})
	}
}

// TestExpvarNamespaces pins the exported expvar names, which operators
// and the perfbench harness scrape, and checks that one request moves
// the request and response counters by exactly one.
func TestExpvarNamespaces(t *testing.T) {
	shared := []string{"checksum_errors", "conns", "deadline_misses", "idle_timeouts", "overloads",
		"protocol_errors", "reduce_chunks", "reductions", "requests", "responses"}
	want := map[string][]string{
		"mfserve": append([]string{"batched_elements", "batched_requests", "batches", "queue_depth"}, shared...),
		"mfproxy": append([]string{"cache_bytes", "cache_hits", "cache_misses", "ejections", "failovers",
			"loop_rejects", "reinstates", "reshards"}, shared...),
	}
	got := map[string][]string{}
	expvar.Do(func(kv expvar.KeyValue) {
		if ns, name, ok := strings.Cut(kv.Key, "."); ok && want[ns] != nil {
			got[ns] = append(got[ns], name)
		}
	})
	for ns, names := range want {
		slices.Sort(names)
		slices.Sort(got[ns])
		if !slices.Equal(got[ns], names) {
			t.Errorf("%s.* expvars = %v, want %v", ns, got[ns], names)
		}
	}
	if len(want["mfserve"]) != 14 || len(want["mfproxy"]) != 18 {
		t.Fatalf("pinned %d mfserve and %d mfproxy names, want 14 and 18", len(want["mfserve"]), len(want["mfproxy"]))
	}

	backend := server.New(server.Config{})
	start(t, backend)
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			d, _ := tg.make(t, 0, backend.Addr().String())
			start(t, d)
			ns := map[string]string{"server": "mfserve", "proxy": "mfproxy"}[tg.name]
			value := func(name string) int64 { return expvar.Get(ns + "." + name).(*expvar.Int).Value() }
			reqs, resps := value("requests"), value("responses")

			nc := dial(t, d.Addr())
			nc.Write(mulFrame(t, 7))
			resp, err := wire.ReadResponse(bufio.NewReader(nc))
			if err != nil || resp.Status != wire.StatusOK || len(resp.Data) != 2 || resp.Data[0] != 15 {
				t.Fatalf("response = %+v, %v; want StatusOK [15 0]", resp, err)
			}
			// Grouped writes count their responses after the flush.
			waitFor(t, ns+".responses", func() bool { return value("responses") > resps })
			if n := value("requests") - reqs; n != 1 {
				t.Errorf("%s.requests moved by %d, want 1", ns, n)
			}
			if n := value("responses") - resps; n != 1 {
				t.Errorf("%s.responses moved by %d, want 1", ns, n)
			}
		})
	}
}
