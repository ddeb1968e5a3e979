package wiresrv

import (
	"expvar"
	"sync/atomic"
)

// Counters are the per-instance atomic counters every wire-v2 listener
// keeps. Each increment is mirrored into a process-wide expvar namespace
// (Vars, served at /debug/vars when a daemon's debug listener is on), so
// tests assert on one instance while operators scrape one stable set of
// names. The owning package embeds Counters in its Stats next to its own
// counters.
type Counters struct {
	Requests       atomic.Int64 // frames accepted off the wire
	Responses      atomic.Int64 // frames written back
	Overloads      atomic.Int64 // requests answered StatusOverloaded
	DeadlineMisses atomic.Int64 // requests answered StatusDeadlineExceeded
	ProtocolErrors atomic.Int64 // malformed frames / bad requests
	ChecksumErrors atomic.Int64 // frames rejected on CRC32C mismatch
	IdleTimeouts   atomic.Int64 // connections closed for idling/stalling
	ActiveConns    atomic.Int64
	ReduceChunks   atomic.Int64 // reduction chunks folded or forwarded
	Reductions     atomic.Int64 // reduction streams completed (result returned)

	vars *Vars
}

// Snapshot is a plain-struct copy of Counters for JSON reporting.
type Snapshot struct {
	Requests       int64 `json:"requests"`
	Responses      int64 `json:"responses"`
	Overloads      int64 `json:"overloads"`
	DeadlineMisses int64 `json:"deadline_misses"`
	ProtocolErrors int64 `json:"protocol_errors"`
	ChecksumErrors int64 `json:"checksum_errors"`
	IdleTimeouts   int64 `json:"idle_timeouts"`
	ActiveConns    int64 `json:"active_conns"`
	ReduceChunks   int64 `json:"reduce_chunks"`
	Reductions     int64 `json:"reductions"`
}

// Snapshot returns a consistent-enough point-in-time copy.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Requests:       c.Requests.Load(),
		Responses:      c.Responses.Load(),
		Overloads:      c.Overloads.Load(),
		DeadlineMisses: c.DeadlineMisses.Load(),
		ProtocolErrors: c.ProtocolErrors.Load(),
		ChecksumErrors: c.ChecksumErrors.Load(),
		IdleTimeouts:   c.IdleTimeouts.Load(),
		ActiveConns:    c.ActiveConns.Load(),
		ReduceChunks:   c.ReduceChunks.Load(),
		Reductions:     c.Reductions.Load(),
	}
}

// Vars is one process-wide expvar namespace for Counters, aggregated
// across every instance that mirrors into it.
type Vars struct {
	requests, responses, overloads, deadlineMisses, protocolErrors,
	checksumErrors, idleTimeouts, conns, reduceChunks, reductions *expvar.Int
}

// NewVars registers prefix.requests … prefix.reductions. expvar panics
// on a duplicate name, so call it once per prefix (a package-level var).
func NewVars(prefix string) *Vars {
	v := func(name string) *expvar.Int { return expvar.NewInt(prefix + "." + name) }
	return &Vars{
		requests:       v("requests"),
		responses:      v("responses"),
		overloads:      v("overloads"),
		deadlineMisses: v("deadline_misses"),
		protocolErrors: v("protocol_errors"),
		checksumErrors: v("checksum_errors"),
		idleTimeouts:   v("idle_timeouts"),
		conns:          v("conns"),
		reduceChunks:   v("reduce_chunks"),
		reductions:     v("reductions"),
	}
}

// Overload, DeadlineMiss, ProtocolError, ReduceChunk and ReduceDone
// count one StatusOverloaded answer, StatusDeadlineExceeded answer,
// malformed frame or rejected request, reduction chunk folded or
// forwarded, and completed reduction stream.
func (c *Counters) Overload()      { c.Overloads.Add(1); c.vars.overloads.Add(1) }
func (c *Counters) DeadlineMiss()  { c.DeadlineMisses.Add(1); c.vars.deadlineMisses.Add(1) }
func (c *Counters) ProtocolError() { c.ProtocolErrors.Add(1); c.vars.protocolErrors.Add(1) }
func (c *Counters) ReduceChunk()   { c.ReduceChunks.Add(1); c.vars.reduceChunks.Add(1) }
func (c *Counters) ReduceDone()    { c.Reductions.Add(1); c.vars.reductions.Add(1) }

func (c *Counters) reqIn()          { c.Requests.Add(1); c.vars.requests.Add(1) }
func (c *Counters) respOut(n int64) { c.Responses.Add(n); c.vars.responses.Add(n) }
func (c *Counters) checksumErr()    { c.ChecksumErrors.Add(1); c.vars.checksumErrors.Add(1) }
func (c *Counters) idleTimeout()    { c.IdleTimeouts.Add(1); c.vars.idleTimeouts.Add(1) }
func (c *Counters) connOpen()       { c.ActiveConns.Add(1); c.vars.conns.Add(1) }
func (c *Counters) connClose()      { c.ActiveConns.Add(-1); c.vars.conns.Add(-1) }
