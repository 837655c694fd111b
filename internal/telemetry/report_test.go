package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestStageStatsAggregation(t *testing.T) {
	var compile, interpret, verify Histogram
	compile.ObserveDuration(10 * time.Millisecond)
	compile.ObserveDuration(30 * time.Millisecond)
	interpret.ObserveDuration(5 * time.Millisecond)
	stats := StageStats(map[string]*Histogram{
		"compile": &compile, "interpret": &interpret, "verify": &verify,
	})
	// The idle verify stage gets no row.
	if len(stats) != 2 {
		t.Fatalf("got %d stages, want 2: %+v", len(stats), stats)
	}
	// Sorted by total descending: compile (40ms) first.
	if stats[0].Stage != "compile" || stats[0].Count != 2 ||
		stats[0].Total != 40*time.Millisecond || stats[0].Mean != 20*time.Millisecond {
		t.Fatalf("compile row = %+v", stats[0])
	}
	if stats[1].Stage != "interpret" || stats[1].Count != 1 ||
		stats[1].Total != 5*time.Millisecond {
		t.Fatalf("interpret row = %+v", stats[1])
	}
}

func TestReportSection(t *testing.T) {
	r := NewSpanRecorder()
	if got := ReportSection(nil, r.SlowestSeeds()); got != "" {
		t.Fatalf("no stage ran, yet a report was rendered:\n%s", got)
	}
	var compile Histogram
	compile.ObserveDuration(2 * time.Millisecond)
	r.Record(3, 2*time.Millisecond)
	r.SeedDone(3, "ok")
	out := ReportSection(StageStats(map[string]*Histogram{"compile": &compile}), r.SlowestSeeds())
	for _, want := range []string{"telemetry:", "compile", "slowest seeds", "seed 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
