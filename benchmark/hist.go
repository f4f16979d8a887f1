package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// hist is a log-linear latency histogram: every power of two is split
// into histSub linear sub-buckets, so a bucket is at most 1/histSub
// (0.78 %) wide relative to its lower edge — the ≤1 % resolution the
// latency metrics are read at. Samples are kept in units of 64 ns; below
// histLo (8.2 µs) buckets are exact, above histHi (137 s) samples clamp to
// the last bucket. Record is safe for concurrent use (one atomic add); the
// readers run after the writers have stopped.
type hist struct {
	counts [histBuckets]atomic.Uint64
}

const (
	histUnit    = 64 // ns per unit
	histSubBits = 7
	histSub     = 1 << histSubBits // linear sub-buckets per octave
	histOctaves = 25               // 128 units (8.2 µs) … 2^32 units (275 s)
	histBuckets = histSub * (histOctaves + 1)
	// minBeyond is how many samples must lie above a percentile before it
	// is reported: fewer, and the number is one stall, not a percentile.
	minBeyond = 10
)

func histIndex(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	v := uint64(d) / histUnit
	if v < histSub {
		return int(v) // exact region
	}
	e := bits.Len64(v) - 1 - histSubBits // octaves above the exact region
	idx := (e+1)<<histSubBits + int(v>>uint(e))&(histSub-1)
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histUpper is the upper edge of bucket idx: the value a percentile that
// falls in the bucket is reported as (never below the true sample).
func histUpper(idx int) time.Duration {
	if idx < histSub {
		return time.Duration(idx+1) * histUnit
	}
	e := idx>>histSubBits - 1
	m := uint64(idx&(histSub-1)) | histSub
	return time.Duration((m+1)<<uint(e)) * histUnit
}

func (h *hist) record(d time.Duration) { h.counts[histIndex(d)].Add(1) }

func (h *hist) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// merge adds o's samples into h.
func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
}

// percentile returns the p-th percentile (0 < p < 100) and whether the
// sample supports it: at least minBeyond samples must lie beyond it.
func (h *hist) percentile(p float64) (time.Duration, bool) {
	n := h.count()
	if n == 0 {
		return 0, false
	}
	rank := uint64(float64(n)*p/100 + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return histUpper(i), n-rank >= minBeyond
		}
	}
	return histUpper(histBuckets - 1), false
}

// ms reads a percentile in milliseconds; unsupported percentiles read 0
// and ok=false so the caller prints them as unresolved, not as a number.
func (h *hist) ms(p float64) (float64, bool) {
	d, ok := h.percentile(p)
	return float64(d) / float64(time.Millisecond), ok
}
