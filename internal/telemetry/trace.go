// The slowest-seeds list: every stage execution of the per-seed
// pipeline adds its duration to its seed's running total, and when the
// seed's verdict lands the total competes for a place among the
// costliest seeds the campaign report lists. Per-stage latency is not
// kept here: it lives in the registry's histograms.
//
// Recording takes one short mutex hold per stage execution — a
// handful per seed, not per op, so the lock never shows on a profile.
// A nil *SpanRecorder records nothing.
package telemetry

import (
	"sort"
	"sync"
	"time"
)

// SeedCost is one entry of the slowest-seeds list: the total
// wall-clock a seed's stages consumed, and its final outcome.
type SeedCost struct {
	Seed    int64         `json:"seed"`
	Total   time.Duration `json:"total_ns"`
	Outcome string        `json:"outcome,omitempty"`
}

// slowestKept is how many of the costliest seeds a SpanRecorder keeps;
// the campaign report lists all of them.
const slowestKept = 10

// SpanRecorder accumulates per-seed stage time and keeps the
// slowestKept costliest finalized seeds. Safe for concurrent use; a
// nil recorder is a no-op.
type SpanRecorder struct {
	mu      sync.Mutex
	pending map[int64]time.Duration // per-seed totals, until SeedDone
	slowest []SeedCost              // at most slowestKept entries
}

// NewSpanRecorder builds an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{pending: make(map[int64]time.Duration)}
}

// Record adds one stage execution's duration to the seed's running
// total (finalized by SeedDone).
func (t *SpanRecorder) Record(seed int64, d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.pending[seed] += d
	t.mu.Unlock()
}

// SeedDone finalizes a seed: its accumulated stage time enters the
// slowest-seeds list tagged with the seed's final outcome, and the
// running total is released.
func (t *SpanRecorder) SeedDone(seed int64, outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total, ok := t.pending[seed]
	if !ok {
		return
	}
	delete(t.pending, seed)
	sc := SeedCost{Seed: seed, Total: total, Outcome: outcome}
	if len(t.slowest) < slowestKept {
		t.slowest = append(t.slowest, sc)
		return
	}
	// Replace the cheapest retained entry if this seed beats it.
	min := 0
	for i := 1; i < len(t.slowest); i++ {
		if t.slowest[i].Total < t.slowest[min].Total {
			min = i
		}
	}
	if total > t.slowest[min].Total {
		t.slowest[min] = sc
	}
}

// SlowestSeeds returns the retained seeds, most expensive first (ties
// broken by seed for a stable order).
func (t *SpanRecorder) SlowestSeeds() []SeedCost {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SeedCost(nil), t.slowest...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Seed < out[j].Seed
	})
	return out
}
