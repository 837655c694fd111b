// The campaign report's telemetry appendix: a per-stage latency table
// read from the stage latency histograms, and the slowest seeds of a
// SpanRecorder. Timings vary run to run, so this section is printed
// after — never inside — any output a determinism check compares.
package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// StageStat is one row of the latency table: what one stage's latency
// histogram has observed. The histogram keeps buckets, count and sum,
// so there is no maximum; P50 and P99 are bucket upper bounds.
type StageStat struct {
	Stage string
	Count uint64
	Total time.Duration
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
}

// StageStats reads one row per stage whose histogram observed anything,
// sorted by total time, highest first (ties by stage name), so the
// table opens with where the wall-clock went.
func StageStats(stages map[string]*Histogram) []StageStat {
	out := make([]StageStat, 0, len(stages))
	for stage, h := range stages {
		if h.Count() == 0 {
			continue
		}
		out = append(out, StageStat{
			Stage: stage,
			Count: h.Count(),
			Total: time.Duration(h.Sum()),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
		})
	}
	slices.SortFunc(out, func(a, b StageStat) int {
		if c := cmp.Compare(b.Total, a.Total); c != 0 {
			return c
		}
		return strings.Compare(a.Stage, b.Stage)
	})
	return out
}

// ReportSection renders the latency table and the slowest seeds.
// Returns "" when no stage ran.
func ReportSection(stats []StageStat, slowest []SeedCost) string {
	if len(stats) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("telemetry:\n")
	b.WriteString("  stage        count      total       mean        p50        p99\n")
	for _, s := range stats {
		fmt.Fprintf(&b, "  %-10s %7d %10s %10s %10s %10s\n",
			s.Stage, s.Count, fmtDur(s.Total), fmtDur(s.Mean), fmtDur(s.P50), fmtDur(s.P99))
	}
	if len(slowest) > 0 {
		fmt.Fprintf(&b, "  slowest seeds (top %d):\n", len(slowest))
		for _, sc := range slowest {
			fmt.Fprintf(&b, "    seed %-12d %10s  %s\n", sc.Seed, fmtDur(sc.Total), sc.Outcome)
		}
	}
	return b.String()
}

// fmtDur renders a duration compactly with millisecond/microsecond
// granularity appropriate to its size.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
	return fmt.Sprintf("%dns", d.Nanoseconds())
}
