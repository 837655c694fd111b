// The fixed-bucket latency histogram: power-of-two bucket bounds, one
// atomic add per observation, no locks anywhere on the record path.
// Durations are observed in nanoseconds; the bucket layout spans 1µs
// (everything faster lands in the first bucket) to ~18 minutes
// (everything slower lands in the overflow bucket), which covers every
// latency the pipeline produces — a microsecond tree-walked run to a
// watchdog-expired multi-second program.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histMinShift/histMaxShift bound the bucket range: bucket i has
	// upper bound 2^(histMinShift+i) nanoseconds, inclusive.
	histMinShift = 10 // first bound: 2^10 ns ≈ 1µs
	histMaxShift = 40 // last bound: 2^40 ns ≈ 18.3min

	// numHistBuckets is the finite bucket count; observations above the
	// last bound go to a separate overflow (+Inf) cell.
	numHistBuckets = histMaxShift - histMinShift + 1
)

// Histogram is a fixed-bucket histogram of nanosecond durations. The
// zero value is ready to use; a nil Histogram is a no-op. All methods
// are safe for concurrent use.
type Histogram struct {
	buckets  [numHistBuckets]atomic.Uint64 // non-cumulative counts
	overflow atomic.Uint64
	count    atomic.Uint64
	sum      atomic.Uint64 // nanoseconds
}

// bucketIndex maps a nanosecond value to its bucket: the smallest i
// with v <= 2^(histMinShift+i), or numHistBuckets for overflow.
func bucketIndex(v uint64) int {
	if v <= 1<<histMinShift {
		return 0
	}
	// bits.Len64(v-1) is the exponent of the smallest power of two >= v.
	i := bits.Len64(v-1) - histMinShift
	if i >= numHistBuckets {
		return numHistBuckets
	}
	return i
}

// Observe records one nanosecond value.
func (h *Histogram) Observe(ns uint64) {
	if h == nil {
		return
	}
	if i := bucketIndex(ns); i == numHistBuckets {
		h.overflow.Add(1)
	} else {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	h.sum.Add(ns)
}

// ObserveDuration records one duration (negative durations count as 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values in nanoseconds.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observed duration (0 with no observations).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.Sum() / n)
}

// histSnapshot is a consistent-enough copy for export: buckets are
// read one atomic load at a time, so a snapshot taken mid-update may
// be off by in-flight observations — harmless for monitoring.
type histSnapshot struct {
	buckets  [numHistBuckets]uint64
	overflow uint64
	count    uint64
	sum      uint64
}

func (h *Histogram) read() histSnapshot {
	var s histSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
	}
	s.overflow = h.overflow.Load()
	s.count = h.count.Load()
	s.sum = h.sum.Load()
	return s
}

// bucketBound returns bucket i's inclusive upper bound in nanoseconds.
func bucketBound(i int) uint64 { return 1 << (histMinShift + i) }

// Quantile returns an upper bound on the q-quantile (q in [0,1]) of
// the observed values: the bound of the bucket holding the nearest-rank
// observation, the first at which the cumulative count reaches
// ceil(q·count), and at least 1. The rank is taken a hair below q·count
// so that float error cannot push 0.99·100 to rank 100. With no
// observations it returns 0;
// if the quantile lands in the overflow bucket it returns the last
// finite bound (the histogram cannot resolve beyond it).
func (h *Histogram) Quantile(q float64) time.Duration {
	s := h.read()
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(s.count) * (1 - 1e-9)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < numHistBuckets; i++ {
		cum += s.buckets[i]
		if cum >= target {
			return time.Duration(bucketBound(i))
		}
	}
	return time.Duration(bucketBound(numHistBuckets - 1))
}
