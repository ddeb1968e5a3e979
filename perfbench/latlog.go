package main

// Latency logs. Every op's latency is counted (nothing is sampled) in a
// log-linear histogram with 1/1024 relative resolution, one histogram per
// equal time window, so that a run's figures can be reported as medians
// over its windows: a slow phase of the host that covers less than half
// of a run moves them little. The histograms live in anonymous memory
// that the kernel maps in only as buckets are touched, so the logs cost
// the same few pages however many ops a run completes.

import (
	"math/bits"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// statWindows is the number of equal windows a measured run is split
// into for its per-window medians.
const statWindows = 10

const (
	subBits  = 10                        // 2^subBits buckets per power of two
	nBuckets = (65 - subBits) << subBits // covers every uint64 nanosecond count
)

// bucketOf maps a latency in ns to its bucket: exact below 2^subBits,
// then 2^subBits buckets per power of two.
func bucketOf(ns uint64) int {
	if ns < 1<<subBits {
		return int(ns)
	}
	e := bits.Len64(ns) - subBits - 1
	return (e+1)<<subBits + int(ns>>e) - 1<<subBits
}

// bucketMid is the midpoint of bucket b in ns.
func bucketMid(b int) float64 {
	if b < 1<<subBits {
		return float64(b)
	}
	e := b>>subBits - 1
	lo := uint64(b&(1<<subBits-1)+1<<subBits) << e
	return float64(lo) + float64(uint64(1)<<e-1)/2
}

// hist counts latencies by bucket.
type hist []uint32

func (h hist) total() int64 {
	var n int64
	for _, c := range h {
		n += int64(c)
	}
	return n
}

// quantile returns the q-quantile (nearest rank) in ns.
func (h hist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	rank := max(1, int64(q*float64(n)+0.999999))
	var seen int64
	for b, c := range h {
		seen += int64(c)
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(len(h) - 1)
}

type latLog struct {
	mem   []uint32 // statWindows+1 histograms back to back; the last takes every later op
	width int64    // window width in ns
}

// newLatLog returns a log with statWindows windows of width window (one
// window, taking every op, when window is 0).
func newLatLog(window time.Duration) *latLog {
	l := &latLog{width: int64(window)}
	if window <= 0 {
		l.width = 1 << 62
	}
	size := (statWindows + 1) * nBuckets
	b, err := syscall.Mmap(-1, 0, size*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		l.mem = make([]uint32, size)
	} else {
		l.mem = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), size)
	}
	return l
}

func (l *latLog) window(k int) hist { return hist(l.mem[k*nBuckets : (k+1)*nBuckets]) }

// add records an op that completed at now (ns since the epoch) after d.
func (l *latLog) add(now int64, d time.Duration) {
	k := min(int(now/l.width), statWindows)
	l.mem[k*nBuckets+bucketOf(uint64(max(d, 0)))]++
}

// merge sums windows [from, to) of every log into one histogram.
func merge(logs []*latLog, from, to int) hist {
	h := make(hist, nBuckets)
	for _, l := range logs {
		for k := from; k < to; k++ {
			for b, c := range l.window(k) {
				h[b] += c
			}
		}
	}
	return h
}

// all is every op of the logs, whatever its window.
func all(logs []*latLog) hist { return merge(logs, 0, statWindows+1) }

// windowStats returns, over the statWindows windows of width w, the
// median completions per second and the median per-window p50 and p99
// (ns), plus the smallest window's sample count.
func windowStats(logs []*latLog, w time.Duration) (opsPerS, p50, p99 float64, minSamples int64) {
	var rates, m50, m99 []float64
	minSamples = -1
	for k := 0; k < statWindows; k++ {
		h := merge(logs, k, k+1)
		n := h.total()
		if minSamples < 0 || n < minSamples {
			minSamples = n
		}
		rates = append(rates, float64(n)/w.Seconds())
		m50 = append(m50, h.quantile(0.50))
		m99 = append(m99, h.quantile(0.99))
	}
	return median(rates), median(m50), median(m99), minSamples
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
