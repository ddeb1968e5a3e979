package wiresrv

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Daemon is what Main drives: a bound listener's accept loop and its
// graceful drain (server.Server and proxy.Proxy).
type Daemon interface {
	Serve() error
	Shutdown(context.Context) error
}

// Main runs a daemon's process lifecycle. It serves d until SIGINT or
// SIGTERM, then drains it within drainTimeout. With debugAddr set it
// also serves the default HTTP mux there: expvar's /debug/vars, plus
// /debug/pprof/ when the command imports net/http/pprof. name prefixes
// the log lines.
//
// drained reports a signal-initiated drain that completed; err is a
// fatal serve error, or the drain budget running out.
func Main(name string, d Daemon, debugAddr string, drainTimeout time.Duration) (drained bool, err error) {
	if debugAddr != "" {
		go func() {
			log.Printf("%s: debug HTTP on http://%s/debug/vars and /debug/pprof/", name, debugAddr)
			if err := http.ListenAndServe(debugAddr, nil); err != nil {
				log.Printf("%s: debug HTTP: %v", name, err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- d.Serve() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%s: %v — draining (budget %v)", name, sig, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		err := d.Shutdown(ctx)
		cancel()
		if serveErr := <-errc; serveErr != nil {
			log.Printf("%s: serve: %v", name, serveErr)
		}
		if err != nil {
			return false, fmt.Errorf("drain incomplete: %w", err)
		}
		return true, nil
	case err := <-errc:
		return false, err
	}
}
