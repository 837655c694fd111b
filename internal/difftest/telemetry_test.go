package difftest_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
	"ratte/internal/faultinject"
	"ratte/internal/telemetry"
)

// telemetryTestConfig is a small campaign that exercises every verdict
// path: an injected compiler bug (detections), fault injection
// (retries, stage failures, quarantine) and plenty of OK seeds.
func telemetryTestConfig() difftest.CampaignConfig {
	return difftest.CampaignConfig{
		Preset:     "ariths",
		Programs:   24,
		Size:       16,
		Seed:       97,
		Bugs:       bugs.Only(bugs.RemoveDeadValuesCall),
		MaxRetries: 2,
		Faults: &faultinject.Spec{
			Seed: 11,
			Rate: 0.02,
			Kinds: []faultinject.Kind{
				faultinject.KindError, faultinject.KindPanic,
			},
		},
	}
}

// TestTelemetryDoesNotPerturbDeterminism is the observability layer's
// core guarantee: attaching telemetry changes nothing about a
// campaign's results. Telemetry on vs off, serial vs parallel — all
// four combinations must produce byte-identical canonical reports.
func TestTelemetryDoesNotPerturbDeterminism(t *testing.T) {
	run := func(withTel bool, workers int) (string, *difftest.CampaignResult) {
		cfg := telemetryTestConfig()
		if withTel {
			cfg.Telemetry = difftest.NewCampaignTelemetry(nil)
		}
		res, err := difftest.RunCampaignParallel(cfg, workers)
		if err != nil {
			t.Fatalf("telemetry=%v workers=%d: %v", withTel, workers, err)
		}
		return difftest.ReportText(res), res
	}

	baseline, baseRes := run(false, 1)
	if len(baseRes.Detections) == 0 {
		t.Fatal("campaign found no detections; the guard needs a non-trivial report")
	}
	for _, c := range []struct {
		withTel bool
		workers int
	}{{true, 1}, {false, 4}, {true, 4}} {
		got, _ := run(c.withTel, c.workers)
		if got != baseline {
			t.Errorf("telemetry=%v workers=%d: report diverges from baseline\n--- baseline ---\n%s\n--- got ---\n%s",
				c.withTel, c.workers, baseline, got)
		}
	}
}

// TestCampaignTelemetryCounters runs an instrumented campaign and
// cross-checks every exported counter against the campaign result it
// observed — the counters must agree with the report, not merely be
// plausible.
func TestCampaignTelemetryCounters(t *testing.T) {
	cfg := telemetryTestConfig()
	tel := difftest.NewCampaignTelemetry(nil)
	cfg.Telemetry = tel
	res, err := difftest.RunCampaignParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	snap := tel.Registry.Snapshot()
	counter := func(series string) uint64 {
		t.Helper()
		v, ok := snap[series]
		if !ok {
			return 0
		}
		return v.(uint64)
	}

	if got := counter("ratte_campaign_seeds_done_total"); got != uint64(len(res.Verdicts)) {
		t.Errorf("seeds_done = %d, want %d", got, len(res.Verdicts))
	}
	byKind := map[difftest.VerdictKind]uint64{}
	var retries, quarantined uint64
	for _, v := range res.Verdicts {
		byKind[v.Kind]++
		if v.Attempts > 1 {
			retries += uint64(v.Attempts - 1)
		}
		if v.Quarantined {
			quarantined++
		}
	}
	for kind, want := range byKind {
		series := `ratte_campaign_verdicts_total{kind="` + string(kind) + `"}`
		if got := counter(series); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
	if got := counter("ratte_campaign_retries_total"); got != retries {
		t.Errorf("retries = %d, want %d", got, retries)
	}
	if got := counter("ratte_campaign_quarantined_total"); got != quarantined {
		t.Errorf("quarantined = %d, want %d", got, quarantined)
	}
	for oracle, n := range res.ByOracle {
		series := `ratte_campaign_detections_total{oracle="` + string(oracle) + `"}`
		if got := counter(series); got != uint64(n) {
			t.Errorf("%s = %d, want %d", series, got, n)
		}
	}

	// The generator and interpreter fed their instruments.
	if counter("ratte_gen_programs_total") == 0 {
		t.Error("generator reported no programs")
	}
	if counter("ratte_interp_runs_total") == 0 {
		t.Error("interpreter reported no runs")
	}

	// Stage latency was recorded for the full pipeline.
	for _, stage := range []string{"generate", "verify", "compile", "interpret", "compare"} {
		if stageHist(snap, stage).Count == 0 {
			t.Errorf("no latency recorded for stage %q", stage)
		}
	}

	// The rendered surfaces work.
	text := tel.Registry.PrometheusText()
	for _, want := range []string{
		"ratte_campaign_verdicts_total", "ratte_stage_latency_ns_bucket",
		"ratte_interp_runs_total", "ratte_gen_ops_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus export missing %s", want)
		}
	}
	section := tel.ReportSection()
	if !strings.Contains(section, "telemetry:") || strings.Contains(section, "cache") {
		t.Errorf("report section incomplete or reports a cache:\n%s", section)
	}
	line := tel.ProgressLine()
	if !strings.Contains(line, "progress: 24/24") || strings.Contains(line, "cache") {
		t.Errorf("progress line = %q", line)
	}
}

// TestTelemetryJournalGauges checks journal I/O accounting: the line
// gauge counts header + verdicts, the byte gauge the file's size.
func TestTelemetryJournalGauges(t *testing.T) {
	cfg := telemetryTestConfig()
	cfg.Faults = nil
	cfg.Programs = 8
	tel := difftest.NewCampaignTelemetry(nil)
	cfg.Telemetry = tel

	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	j, err := difftest.CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	res, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	snap := tel.Registry.Snapshot()
	if got := snap["ratte_journal_lines"].(int64); got != int64(len(res.Verdicts)+1) {
		t.Errorf("journal lines = %d, want %d", got, len(res.Verdicts)+1)
	}
	if got := snap["ratte_journal_bytes"].(int64); got <= 0 {
		t.Errorf("journal bytes = %d, want > 0", got)
	}
	// Every journal append is timed in the journal stage's histogram.
	if got := stageHist(snap, "journal").Count; got != uint64(len(res.Verdicts)) {
		t.Errorf("journal appends timed = %d, want %d", got, len(res.Verdicts))
	}
}

// stageHist returns the ratte_stage_latency_ns histogram of one stage
// from a registry snapshot (the zero value when the series is absent).
func stageHist(snap map[string]any, stage string) telemetry.HistogramJSON {
	h, _ := snap[`ratte_stage_latency_ns{stage="`+stage+`"}`].(telemetry.HistogramJSON)
	return h
}

// TestTelemetrySlowestSeedsExcludeJournal pins that the slowest-seeds
// totals hold stage time only: journal appends belong to no seed, so
// in a campaign whose seeds include -1 the totals still sum exactly to
// the pipeline stages' latency sums.
func TestTelemetrySlowestSeedsExcludeJournal(t *testing.T) {
	cfg := telemetryTestConfig()
	cfg.Faults = nil
	cfg.Seed, cfg.Programs = -3, 3
	tel := difftest.NewCampaignTelemetry(nil)
	cfg.Telemetry = tel
	j, err := difftest.CreateJournal(filepath.Join(t.TempDir(), "campaign.jsonl"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	if _, err := difftest.RunCampaignParallel(cfg, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	snap := tel.Registry.Snapshot()
	if stageHist(snap, "journal").Count == 0 {
		t.Fatal("no journal appends timed")
	}
	var stages uint64
	for _, stage := range []string{"generate", "reference", "verify", "compile", "interpret", "compare"} {
		stages += stageHist(snap, stage).SumNs
	}
	slow := tel.Spans.SlowestSeeds()
	if len(slow) != cfg.Programs {
		t.Fatalf("slowest seeds = %+v, want all %d seeds", slow, cfg.Programs)
	}
	var seeds uint64
	for _, sc := range slow {
		seeds += uint64(sc.Total)
	}
	if seeds != stages {
		t.Errorf("slowest-seeds totals sum to %d ns, stage latencies to %d ns", seeds, stages)
	}
}

// TestTelemetryFamilyReferenceStage checks family mode's reference
// stage is exported like every other stage: one observation per member
// reference run.
func TestTelemetryFamilyReferenceStage(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset: "ariths", Programs: 12, Size: 16, Seed: 97,
		FamilySize: 4, Batched: true,
	}
	tel := difftest.NewCampaignTelemetry(nil)
	cfg.Telemetry = tel
	res, err := difftest.RunCampaignParallel(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every member runs its reference unless its family failed before
	// the reference stage.
	want := 0
	for _, v := range res.Verdicts {
		if v.Failure == nil || v.Failure.Stage != difftest.StageGenerate {
			want++
		}
	}
	if want == 0 {
		t.Fatal("no member reached the reference stage")
	}
	line := fmt.Sprintf(`ratte_stage_latency_ns_count{stage="reference"} %d`, want)
	if text := tel.Registry.PrometheusText(); !strings.Contains(text, line+"\n") {
		t.Errorf("metrics export lacks %q", line)
	}
	if !strings.Contains(tel.ReportSection(), "  reference ") {
		t.Errorf("report section has no reference row:\n%s", tel.ReportSection())
	}
}

// TestNilCampaignTelemetry pins the off switch: every method is safe
// and inert on a nil receiver.
func TestNilCampaignTelemetry(t *testing.T) {
	var tel *difftest.CampaignTelemetry
	if tel.ProgressLine() != "" || tel.ReportSection() != "" {
		t.Fatal("nil telemetry rendered output")
	}
	// A campaign with nil telemetry runs normally (the common path).
	cfg := telemetryTestConfig()
	cfg.Faults = nil
	cfg.Programs = 4
	if _, err := difftest.RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignTelemetrySharedRegistry checks a caller-supplied registry
// receives the campaign series (the -metrics-addr wiring).
func TestCampaignTelemetrySharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := difftest.NewCampaignTelemetry(reg)
	if tel.Registry != reg {
		t.Fatal("telemetry did not adopt the supplied registry")
	}
	cfg := telemetryTestConfig()
	cfg.Faults = nil
	cfg.Programs = 4
	cfg.Telemetry = tel
	if _, err := difftest.RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reg.PrometheusText(), "ratte_campaign_seeds_done_total 4") {
		t.Error("campaign counters not visible on the shared registry")
	}
}
