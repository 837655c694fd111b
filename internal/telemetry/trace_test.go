package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestNilSpanRecorder(t *testing.T) {
	var r *SpanRecorder
	r.Record(1, time.Millisecond)
	r.SeedDone(1, "ok")
	if r.SlowestSeeds() != nil {
		t.Fatal("nil recorder returned data")
	}
}

func TestSlowestSeedsLeaderboard(t *testing.T) {
	r := NewSpanRecorder()
	// Seed cost accumulates across stages until SeedDone.
	r.Record(7, 10*time.Millisecond)
	r.Record(7, 15*time.Millisecond)
	r.Record(8, 5*time.Millisecond)
	r.SeedDone(7, "ok")
	r.SeedDone(8, "detection")
	// A seed never finalized stays out of the leaderboard.
	r.Record(9, time.Hour)

	slow := r.SlowestSeeds()
	if len(slow) != 2 {
		t.Fatalf("leaderboard has %d entries, want 2", len(slow))
	}
	if slow[0].Seed != 7 || slow[0].Total != 25*time.Millisecond {
		t.Fatalf("slowest = %+v, want seed 7 at 25ms", slow[0])
	}
	if slow[1].Seed != 8 || slow[1].Outcome != "detection" {
		t.Fatalf("second = %+v", slow[1])
	}
	// SeedDone twice is harmless: the second call finds no pending time.
	r.SeedDone(7, "ok")
	if len(r.SlowestSeeds()) != 2 {
		t.Fatal("duplicate SeedDone added an entry")
	}
}

func TestSlowestSeedsBounded(t *testing.T) {
	r := NewSpanRecorder()
	for i := 0; i < slowestKept+20; i++ {
		r.Record(int64(i), time.Duration(i+1)*time.Microsecond)
		r.SeedDone(int64(i), "ok")
	}
	slow := r.SlowestSeeds()
	if len(slow) != slowestKept {
		t.Fatalf("leaderboard has %d entries, want %d", len(slow), slowestKept)
	}
	// It kept the costliest: the highest-seed entries, in order.
	for i, sc := range slow {
		if want := int64(slowestKept + 19 - i); sc.Seed != want {
			t.Fatalf("entry %d is seed %d, want %d", i, sc.Seed, want)
		}
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	r := NewSpanRecorder()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seed := int64(w*per + i)
				r.Record(seed, time.Duration(seed+1))
				r.SeedDone(seed, "ok")
			}
		}(w)
	}
	wg.Wait()
	slow := r.SlowestSeeds()
	if len(slow) != slowestKept || slow[0].Seed != workers*per-1 {
		t.Fatalf("slowest = %+v, want %d entries led by seed %d", slow, slowestKept, workers*per-1)
	}
}
