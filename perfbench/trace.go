package main

// Span tracing for the traced run. Spans are recorded only by the
// benchmark's own code, around each call it makes into a layer, into
// fixed-capacity per-goroutine buffers: recording never allocates, never
// takes a lock, and stops (counting drops) once a buffer is full. Spans
// stay in memory until the run ends, when they are written out and
// reduced to per-span self times.

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type spanKind uint8

const (
	spanNone       spanKind = iota
	spanOp                  // one op, from its first to its last recorded step
	spanKernel              // one library call (kernels)
	spanEncode              // wire.WriteRequest into the connection buffer
	spanWriteFlush          // bufio flush to the socket, shared by the ops it carries
	spanAwait               // from an op's encode end until its response bytes are readable
	spanDecode              // wire.ReadResponse of the op's response
	spanVerify              // bit comparison against the expected result
	spanClientCall          // one typed serve/client call (serve-bulk)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanNone:       "-",
	spanOp:         "op",
	spanKernel:     "kernel_call",
	spanEncode:     "encode",
	spanWriteFlush: "write_flush",
	spanAwait:      "await",
	spanDecode:     "decode",
	spanVerify:     "verify",
	spanClientCall: "client_call",
}

type span struct {
	kind, parent spanKind
	op           uint64
	start, end   int64 // ns since the tracer's epoch
}

// tracer owns the recorders of one traced phase.
type tracer struct {
	epoch     time.Time
	recs      []*recorder
	perRecCap int
}

func newTracer(perRecCap int) *tracer {
	return &tracer{epoch: time.Now(), perRecCap: perRecCap}
}

// recorder returns a new span buffer for one goroutine. A nil tracer
// hands out nil recorders, whose methods do nothing.
func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{epoch: t.epoch, spans: make([]span, 0, t.perRecCap)}
	t.recs = append(t.recs, r)
	return r
}

type recorder struct {
	epoch   time.Time
	spans   []span
	dropped int64
}

// now returns the current offset from the epoch (0 when not tracing).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

func (r *recorder) add(kind, parent spanKind, op uint64, start, end int64) {
	if r == nil {
		return
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{kind: kind, parent: parent, op: op, start: start, end: end})
}

// selfTimes reduces the recorded spans to each kind's self time per op:
// a span's duration minus the part its children cover. Children of one
// op run one after another inside it, so their durations sum to the
// covered part. Ops are counted by their root spans.
func (t *tracer) selfTimes() (perOpUS map[string]float64, ops int64, dropped int64) {
	var total, child [numSpanKinds]int64
	for _, r := range t.recs {
		dropped += r.dropped
		for _, s := range r.spans {
			d := s.end - s.start
			total[s.kind] += d
			if s.parent != spanNone {
				child[s.parent] += d
			}
			if s.kind == spanOp {
				ops++
			}
		}
	}
	perOpUS = make(map[string]float64)
	if ops == 0 {
		return perOpUS, 0, dropped
	}
	for k := spanKind(1); k < numSpanKinds; k++ {
		if total[k] > 0 {
			perOpUS[spanNames[k]] = float64(total[k]-child[k]) / 1e3 / float64(ops)
		}
	}
	return perOpUS, ops, dropped
}

// writeSpans writes every recorded span, gzipped, as a tab-separated
// line: kind, parent, op, start_ns, end_ns.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(w, "kind\tparent\top\tstart_ns\tend_ns")
	for _, r := range t.recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", spanNames[s.kind], spanNames[s.parent], s.op, s.start, s.end)
		}
	}
	err = errors.Join(w.Flush(), zw.Close())
	return errors.Join(err, f.Close())
}
