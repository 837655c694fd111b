package telemetry

import (
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 0},
		{1024, 0}, // exactly 2^10: first bucket is inclusive
		{1025, 1}, // one past: next bucket
		{2048, 1}, // exactly 2^11
		{2049, 2},
		{1 << 40, numHistBuckets - 1},   // last finite bound, inclusive
		{(1 << 40) + 1, numHistBuckets}, // overflow
		{^uint64(0), numHistBuckets},    // max value overflows
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketBoundsArePowersOfTwo(t *testing.T) {
	for i := 0; i < numHistBuckets; i++ {
		want := uint64(1) << (histMinShift + i)
		if bucketBound(i) != want {
			t.Fatalf("bucketBound(%d) = %d, want %d", i, bucketBound(i), want)
		}
		// Every bound's own value must land in its bucket (inclusive
		// upper bounds), and bound+1 in the next.
		if got := bucketIndex(want); got != i {
			t.Fatalf("bound %d landed in bucket %d, want %d", want, got, i)
		}
	}
}

func TestHistogramObserveAndStats(t *testing.T) {
	var h Histogram
	h.Observe(500)        // bucket 0 (≤1µs)
	h.Observe(1500)       // bucket 1
	h.Observe(3000)       // bucket 2
	h.ObserveDuration(-5) // clamps to 0, bucket 0
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 5000 {
		t.Fatalf("sum = %d, want 5000", h.Sum())
	}
	if h.Mean() != 1250 {
		t.Fatalf("mean = %v, want 1250ns", h.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 90 fast observations, 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(500) // bucket 0, bound 1024
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 << 20) // bound 2^20
	}
	if got := h.Quantile(0.5); got != time.Duration(1024) {
		t.Fatalf("p50 = %v, want 1024ns", got)
	}
	if got := h.Quantile(0.99); got != time.Duration(1<<20) {
		t.Fatalf("p99 = %v, want %v", got, time.Duration(1<<20))
	}
	// Quantiles clamp out-of-range q.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("out-of-range q not clamped")
	}

	// Small counts: the rank is the nearest rank ceil(q·count), never
	// below 1. With n-1 fast observations and one slow one, p99 reads
	// the slow bucket until ceil(0.99·n) falls to n-1, at n = 100.
	const fast, slow = time.Duration(1024), time.Duration(1 << 20)
	for _, c := range []struct {
		n        int
		p50, p99 time.Duration
	}{
		{1, slow, slow},
		{2, fast, slow},
		{99, fast, slow},
		{100, fast, fast},
		{101, fast, fast},
	} {
		var h Histogram
		for i := 0; i < c.n-1; i++ {
			h.Observe(500)
		}
		h.Observe(1 << 20)
		if got := h.Quantile(0.5); got != c.p50 {
			t.Errorf("n=%d: p50 = %v, want %v", c.n, got, c.p50)
		}
		if got := h.Quantile(0.99); got != c.p99 {
			t.Errorf("n=%d: p99 = %v, want %v", c.n, got, c.p99)
		}
	}
}

func TestHistogramOverflow(t *testing.T) {
	var h Histogram
	h.Observe(1 << 50) // far beyond the last bound
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	s := h.read()
	if s.overflow != 1 {
		t.Fatalf("overflow = %d, want 1", s.overflow)
	}
	// The quantile cannot resolve past the last finite bound.
	if got := h.Quantile(1); got != time.Duration(bucketBound(numHistBuckets-1)) {
		t.Fatalf("overflow quantile = %v", got)
	}
}
