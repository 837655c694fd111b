// Campaign telemetry: the instrument bundle the campaign engine feeds
// while it runs. One CampaignTelemetry owns a metrics registry and a
// span recorder; the per-seed pipeline records a span per stage
// (generate/verify/compile/interpret/compare, plus journal I/O), the
// sequencer counts verdicts as it sequences them, the generator reports
// its op-coverage distribution, the interpreter its run/step counters,
// and the shared program/pipeline caches are exported as callback
// gauges read only at scrape time.
//
// Everything here is observation: a campaign with telemetry attached
// produces the byte-identical ReportText of one without, serial or
// parallel (TestTelemetryDoesNotPerturbDeterminism pins this). A nil
// *CampaignTelemetry disables the whole layer — the stages then pay a
// nil check and not even a time.Now.
package difftest

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ratte/internal/compiler"
	"ratte/internal/dialects"
	"ratte/internal/faultinject"
	"ratte/internal/gen"
	"ratte/internal/interp"
	"ratte/internal/telemetry"
)

// DefaultSlowestN is how many of the costliest seeds the telemetry
// report section lists.
const DefaultSlowestN = 10

// journalStage is the span-recorder key for journal appends; it sits
// beside the pipeline stages in the latency table.
const journalStage = "journal"

// CampaignTelemetry instruments one campaign. Construct with
// NewCampaignTelemetry and attach via CampaignConfig.Telemetry; all
// methods are safe on a nil receiver and from concurrent workers.
type CampaignTelemetry struct {
	// Registry holds every metric this campaign emits (plus the
	// process-wide cache gauges). Export it via PrometheusText /
	// Snapshot, or serve it with telemetry.Serve.
	Registry *telemetry.Registry
	// Spans is the stage-span recorder behind the latency table and
	// the slowest-seeds list.
	Spans *telemetry.SpanRecorder
	// SlowestN overrides how many seeds ReportSection lists
	// (DefaultSlowestN if 0).
	SlowestN int

	seedsDone   *telemetry.Counter
	verdicts    *telemetry.CounterVec
	vOK         *telemetry.Counter
	vDetection  *telemetry.Counter
	vFailure    *telemetry.Counter
	vTimeout    *telemetry.Counter
	oracles     *telemetry.CounterVec
	retries     *telemetry.Counter
	quarantined *telemetry.Counter
	faults      *telemetry.CounterVec
	stageLat    map[Stage]*telemetry.Histogram
	journalLat  *telemetry.Histogram

	genM    *gen.Metrics
	interpM *interp.Metrics

	total       atomic.Int64
	startNano   atomic.Int64
	journalOnce sync.Once
	planOnce    sync.Once
	planPos     *telemetry.CounterVec
}

// NewCampaignTelemetry builds the campaign instrument bundle on the
// given registry (a fresh private registry when reg is nil). The
// shared program caches and the compiler's pipeline cache are
// registered as callback gauges — their counters are always on inside
// the caches; exporting them costs nothing until scraped.
func NewCampaignTelemetry(reg *telemetry.Registry) *CampaignTelemetry {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	t := &CampaignTelemetry{
		Registry: reg,
		Spans:    telemetry.NewSpanRecorder(0),
		seedsDone: reg.Counter("ratte_campaign_seeds_done_total",
			"seeds with a final verdict (resumed seeds included)"),
		verdicts: reg.CounterVec("ratte_campaign_verdicts_total", "kind",
			"final verdicts by kind"),
		oracles: reg.CounterVec("ratte_campaign_detections_total", "oracle",
			"detections by firing oracle"),
		retries: reg.Counter("ratte_campaign_retries_total",
			"re-attempts of transiently failing seeds"),
		quarantined: reg.Counter("ratte_campaign_quarantined_total",
			"seeds that never produced a testable attempt"),
		faults: reg.CounterVec("ratte_campaign_faults_total", "site",
			"injected faults fired, by site"),
		planPos: reg.CounterVec("ratte_plan_pass_position_total", "pass",
			"sampled plan-set coverage: occurrences of each pass at each pipeline position (pass@pos)"),
		stageLat: make(map[Stage]*telemetry.Histogram),
	}
	t.vOK = t.verdicts.With(string(VerdictOK))
	t.vDetection = t.verdicts.With(string(VerdictDetection))
	t.vFailure = t.verdicts.With(string(VerdictStageFailure))
	t.vTimeout = t.verdicts.With(string(VerdictTimeout))
	for _, st := range []Stage{StageGenerate, StageVerify, StageCompile, StageInterpret, StageCompare} {
		t.stageLat[st] = reg.HistogramWith("ratte_stage_latency_ns",
			`stage="`+string(st)+`"`, "per-seed pipeline stage latency")
	}
	t.journalLat = reg.HistogramWith("ratte_stage_latency_ns",
		`stage="`+journalStage+`"`, "per-seed pipeline stage latency")
	t.genM = gen.NewMetrics(reg)
	t.interpM = interp.NewMetrics(reg)

	interp.RegisterProgramCacheMetrics(reg, "source", dialects.SourceProgramCache())
	interp.RegisterProgramCacheMetrics(reg, "executor", dialects.ExecutorProgramCache())
	reg.GaugeFunc("ratte_compiler_pipeline_cache_hits", "memoized pass-pipeline lookups served from cache",
		func() int64 { h, _, _ := compiler.PipelineCacheStats(); return int64(h) })
	reg.GaugeFunc("ratte_compiler_pipeline_cache_misses", "pass-pipeline builds", func() int64 {
		_, m, _ := compiler.PipelineCacheStats()
		return int64(m)
	})
	reg.GaugeFunc("ratte_compiler_pipeline_cache_size", "distinct memoized pipelines", func() int64 {
		_, _, s := compiler.PipelineCacheStats()
		return int64(s)
	})
	return t
}

// begin stamps the campaign's size and start time; idempotent, so a
// resumed or restarted campaign keeps the first start.
func (t *CampaignTelemetry) begin(total int) {
	if t == nil {
		return
	}
	t.total.Store(int64(total))
	t.startNano.CompareAndSwap(0, time.Now().UnixNano())
}

// stageStart returns the stage clock's start — the zero time (no
// clock read at all) when telemetry is off.
func (t *CampaignTelemetry) stageStart() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageDone records one stage span.
func (t *CampaignTelemetry) stageDone(seed int64, stage Stage, start time.Time, outcome string) {
	if t == nil {
		return
	}
	d := time.Since(start)
	t.Spans.Record(seed, string(stage), d, outcome)
	t.stageLat[stage].ObserveDuration(d)
}

// onFault is the fault-injector observer: counts fired faults by site.
func (t *CampaignTelemetry) onFault(f faultinject.Fault) {
	t.faults.Inc(f.Site)
}

// onVerdict folds one sequenced verdict into the counters and
// finalizes the seed's span total. The sequencer calls it exactly where
// it records the verdict, so counts match the final report.
func (t *CampaignTelemetry) onVerdict(v Verdict) {
	if t == nil {
		return
	}
	t.seedsDone.Inc()
	switch v.Kind {
	case VerdictOK:
		t.vOK.Inc()
	case VerdictDetection:
		t.vDetection.Inc()
		t.oracles.Inc(string(v.Oracle))
	case VerdictStageFailure:
		t.vFailure.Inc()
	case VerdictTimeout:
		t.vTimeout.Inc()
	default:
		t.verdicts.Inc(string(v.Kind))
	}
	if v.Quarantined {
		t.quarantined.Inc()
	}
	if v.Attempts > 1 {
		t.retries.Add(uint64(v.Attempts - 1))
	}
	t.Spans.SeedDone(v.Seed, string(v.Kind))
}

// journalDone records one journal append's latency.
func (t *CampaignTelemetry) journalDone(start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start)
	t.journalLat.ObserveDuration(d)
	t.Spans.Record(-1, journalStage, d, "")
}

// attachJournal exposes the journal's line/byte counters as gauges
// (registered once per telemetry instance).
func (t *CampaignTelemetry) attachJournal(j *Journal) {
	if t == nil || j == nil {
		return
	}
	t.journalOnce.Do(func() {
		t.Registry.GaugeFunc("ratte_journal_lines", "verdict lines appended (header included)",
			func() int64 { l, _ := j.Written(); return l })
		t.Registry.GaugeFunc("ratte_journal_bytes", "bytes appended to the campaign journal",
			func() int64 { _, b := j.Written(); return b })
	})
}

// attachPlans exposes a plan-mode campaign's plan-space coverage: the
// plan-set size as a gauge and, for every plan, each pass occurrence
// counted at its pipeline position ("name@pos"). The counts describe
// the sampled set itself — which phase orders this campaign exercises
// — and are registered once per telemetry instance.
func (t *CampaignTelemetry) attachPlans(plans []compiler.Plan) {
	if t == nil || len(plans) == 0 {
		return
	}
	t.planOnce.Do(func() {
		n := int64(len(plans))
		t.Registry.GaugeFunc("ratte_plan_set_size", "sampled compilation plans per program",
			func() int64 { return n })
		for _, p := range plans {
			for pos, name := range p.Passes {
				t.planPos.Inc(fmt.Sprintf("%s@%d", name, pos))
			}
		}
	})
}

// genMetrics returns the generator instrument bundle (nil when
// telemetry is off).
func (t *CampaignTelemetry) genMetrics() *gen.Metrics {
	if t == nil {
		return nil
	}
	return t.genM
}

// interpMetrics returns the interpreter instrument bundle (nil when
// telemetry is off).
func (t *CampaignTelemetry) interpMetrics() *interp.Metrics {
	if t == nil {
		return nil
	}
	return t.interpM
}

// CacheHitRate returns the executor program cache's lifetime hit rate
// in [0,1] (0 with no lookups).
func CacheHitRate() float64 {
	st := dialects.ExecutorProgramCache().StatsDetail()
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// ProgressLine renders the one-line live status the -progress flag
// prints: seeds done/total, verdict tallies, throughput, cache hit
// rate and ETA. Safe to call from any goroutine while the campaign
// runs; returns "" when telemetry is off or the campaign has not
// started.
func (t *CampaignTelemetry) ProgressLine() string {
	if t == nil {
		return ""
	}
	start := t.startNano.Load()
	if start == 0 {
		return ""
	}
	done := int64(t.seedsDone.Value())
	total := t.total.Load()
	elapsed := time.Since(time.Unix(0, start))
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed.Seconds()
	}
	eta := "-"
	if rate > 0 && total > done {
		eta = time.Duration(float64(total-done) / rate * float64(time.Second)).Round(time.Second).String()
	}
	var b strings.Builder
	pctDone := 0.0
	if total > 0 {
		pctDone = 100 * float64(done) / float64(total)
	}
	fmt.Fprintf(&b, "progress: %d/%d (%.1f%%)", done, total, pctDone)
	fmt.Fprintf(&b, " | ok:%d det:%d fail:%d to:%d",
		t.vOK.Value(), t.vDetection.Value(), t.vFailure.Value(), t.vTimeout.Value())
	fmt.Fprintf(&b, " | %.1f/sec", rate)
	fmt.Fprintf(&b, " | cache %.1f%%", 100*CacheHitRate())
	fmt.Fprintf(&b, " | eta %s", eta)
	return b.String()
}

// ReportSection renders the telemetry appendix of the final report:
// the per-stage latency table, the slowest-N seeds, and cache
// effectiveness. Timings vary run to run, so this section is printed
// after — never inside — the canonical ReportText the determinism
// guards compare. Returns "" when telemetry is off.
func (t *CampaignTelemetry) ReportSection() string {
	if t == nil {
		return ""
	}
	n := t.SlowestN
	if n <= 0 {
		n = DefaultSlowestN
	}
	var b strings.Builder
	b.WriteString(t.Spans.ReportSection(n))
	ex := dialects.ExecutorProgramCache().StatsDetail()
	src := dialects.SourceProgramCache().StatsDetail()
	fmt.Fprintf(&b, "  program cache (executor): %d hits, %d misses, %d evictions, %d entries\n",
		ex.Hits, ex.Misses, ex.Evictions, ex.Size)
	fmt.Fprintf(&b, "  program cache (source):   %d hits, %d misses, %d evictions, %d entries\n",
		src.Hits, src.Misses, src.Evictions, src.Size)
	ph, pm, ps := compiler.PipelineCacheStats()
	fmt.Fprintf(&b, "  pipeline cache: %d hits, %d misses, %d pipelines\n", ph, pm, ps)
	return b.String()
}
