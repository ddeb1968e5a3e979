package server

import (
	"expvar"
	"sync/atomic"

	"multifloats/internal/wiresrv"
)

// Stats are per-Server atomic counters: the connection-server core's
// shared set (requests, responses, overloads, deadline misses, protocol
// and checksum errors, idle timeouts, conns, reduce chunks, reductions)
// plus the batching lanes' own. Every increment is mirrored into the
// process-wide "mfserve.*" expvar namespace (exported at /debug/vars
// when the daemon's debug listener is enabled), so tests can assert on
// a specific Server instance while operators scrape one stable namespace.
type Stats struct {
	wiresrv.Counters
	Batches      atomic.Int64 // slab executions (scalar lanes)
	BatchedReqs  atomic.Int64 // requests carried by those batches
	BatchedElems atomic.Int64 // expansion elements carried by those batches
	QueueDepth   atomic.Int64 // scalar requests currently enqueued
}

// Snapshot is a plain-struct copy for JSON reporting.
type Snapshot struct {
	wiresrv.Snapshot
	Batches      int64 `json:"batches"`
	BatchedReqs  int64 `json:"batched_requests"`
	BatchedElems int64 `json:"batched_elements"`
	QueueDepth   int64 `json:"queue_depth"`
}

// Snapshot returns a consistent-enough point-in-time copy.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Snapshot:     s.Counters.Snapshot(),
		Batches:      s.Batches.Load(),
		BatchedReqs:  s.BatchedReqs.Load(),
		BatchedElems: s.BatchedElems.Load(),
		QueueDepth:   s.QueueDepth.Load(),
	}
}

// The lane counters' process-wide expvar mirrors, aggregated across all
// Server instances in the process (names are registered once; expvar
// panics on duplicates).
// mean batch occupancy = mfserve.batched_requests / mfserve.batches.
var (
	evBatches      = expvar.NewInt("mfserve.batches")
	evBatchedReqs  = expvar.NewInt("mfserve.batched_requests")
	evBatchedElems = expvar.NewInt("mfserve.batched_elements")
	evQueueDepth   = expvar.NewInt("mfserve.queue_depth")
)

func (s *Stats) enqueue(n int64) {
	s.QueueDepth.Add(n)
	evQueueDepth.Add(n)
}
func (s *Stats) batch(reqs, elems int64) {
	s.Batches.Add(1)
	s.BatchedReqs.Add(reqs)
	s.BatchedElems.Add(elems)
	evBatches.Add(1)
	evBatchedReqs.Add(reqs)
	evBatchedElems.Add(elems)
}
