package difftest

import (
	"strings"
	"testing"
	"time"
)

// TestTelemetryReportSection pins the latency table's rendering: one
// row per stage that ran, read from the stage histograms and sorted by
// total time, then the slowest seeds.
func TestTelemetryReportSection(t *testing.T) {
	tel := NewCampaignTelemetry(nil)
	if got := tel.ReportSection(); got != "" {
		t.Fatalf("idle telemetry rendered a report:\n%s", got)
	}
	tel.stageLat[StageCompile].ObserveDuration(10 * time.Millisecond)
	tel.stageLat[StageCompile].ObserveDuration(30 * time.Millisecond)
	tel.stageLat[StageInterpret].ObserveDuration(5 * time.Millisecond)
	tel.journalLat.ObserveDuration(time.Millisecond)
	tel.Spans.Record(3, 2*time.Millisecond)
	tel.Spans.SeedDone(3, "ok")

	lines := strings.Split(strings.TrimRight(tel.ReportSection(), "\n"), "\n")
	want := []string{
		"telemetry:",
		"  stage        count      total       mean        p50        p99",
		"  compile          2    40.00ms    20.00ms    16.78ms    16.78ms",
		"  interpret        1     5.00ms     5.00ms     8.39ms     8.39ms",
		"  journal          1     1.00ms     1.00ms     1.05ms     1.05ms",
		"  slowest seeds (top 1):",
		"    seed 3                2.00ms  ok",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("report section:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}
