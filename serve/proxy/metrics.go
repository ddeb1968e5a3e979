package proxy

import (
	"expvar"
	"sync/atomic"

	"multifloats/internal/wiresrv"
)

// Stats are per-Proxy atomic counters: the connection-server core's
// shared set plus the cluster tier's own, all mirrored into the
// process-wide "mfproxy.*" expvar namespace (served at /debug/vars when
// the daemon's debug listener is enabled) — same split as serve/server's
// Stats: tests assert on an instance, operators scrape one namespace.
type Stats struct {
	wiresrv.Counters
	CacheHits   atomic.Int64 // responses served from the result cache
	CacheMisses atomic.Int64 // cacheable requests that went upstream
	CacheBytes  atomic.Int64 // current cache footprint
	Failovers   atomic.Int64 // attempts re-routed to another backend
	Ejections   atomic.Int64 // backends ejected for consecutive failures
	Reinstates  atomic.Int64 // ejected backends restored by a probe
	LoopRejects atomic.Int64 // requests rejected at the proxy-hop limit
	Reshards    atomic.Int64 // reduction shard streams replayed on failover
}

// Snapshot is a plain-struct copy for JSON reporting.
type Snapshot struct {
	wiresrv.Snapshot
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheBytes  int64 `json:"cache_bytes"`
	Failovers   int64 `json:"failovers"`
	Ejections   int64 `json:"ejections"`
	Reinstates  int64 `json:"reinstates"`
	LoopRejects int64 `json:"loop_rejects"`
	Reshards    int64 `json:"reshards"`
}

// Snapshot returns a consistent-enough point-in-time copy.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Snapshot:    s.Counters.Snapshot(),
		CacheHits:   s.CacheHits.Load(),
		CacheMisses: s.CacheMisses.Load(),
		CacheBytes:  s.CacheBytes.Load(),
		Failovers:   s.Failovers.Load(),
		Ejections:   s.Ejections.Load(),
		Reinstates:  s.Reinstates.Load(),
		LoopRejects: s.LoopRejects.Load(),
		Reshards:    s.Reshards.Load(),
	}
}

var (
	evCacheHits   = expvar.NewInt("mfproxy.cache_hits")
	evCacheMisses = expvar.NewInt("mfproxy.cache_misses")
	evCacheBytes  = expvar.NewInt("mfproxy.cache_bytes")
	evFailovers   = expvar.NewInt("mfproxy.failovers")
	evEjections   = expvar.NewInt("mfproxy.ejections")
	evReinstates  = expvar.NewInt("mfproxy.reinstates")
	evLoopRejects = expvar.NewInt("mfproxy.loop_rejects")
	evReshards    = expvar.NewInt("mfproxy.reshards")
)

func (s *Stats) cacheHit()  { s.CacheHits.Add(1); evCacheHits.Add(1) }
func (s *Stats) cacheMiss() { s.CacheMisses.Add(1); evCacheMisses.Add(1) }
func (s *Stats) cacheSize(d int64) {
	s.CacheBytes.Add(d)
	evCacheBytes.Add(d)
}
func (s *Stats) failover()   { s.Failovers.Add(1); evFailovers.Add(1) }
func (s *Stats) ejection()   { s.Ejections.Add(1); evEjections.Add(1) }
func (s *Stats) reinstate()  { s.Reinstates.Add(1); evReinstates.Add(1) }
func (s *Stats) loopReject() { s.LoopRejects.Add(1); evLoopRejects.Add(1) }
func (s *Stats) reshard()    { s.Reshards.Add(1); evReshards.Add(1) }
