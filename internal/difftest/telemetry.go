// Campaign telemetry: the instrument bundle the campaign engine feeds
// while it runs. One CampaignTelemetry owns a metrics registry and a
// span recorder. Every execution of a per-seed pipeline stage
// (generate, reference, verify, compile, interpret, compare) and every
// journal append is observed in the registry's
// ratte_stage_latency_ns{stage} histograms, the one per-stage latency
// record; the span recorder only sums each seed's stage time for the
// slowest-seeds list. The sequencer counts verdicts as it sequences
// them, the generator reports its op-coverage distribution and the
// interpreter its run/step counters.
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
	"ratte/internal/faultinject"
	"ratte/internal/gen"
	"ratte/internal/interp"
	"ratte/internal/telemetry"
)

// journalStage is the stage label of journal appends; it sits beside
// the pipeline stages in the latency table.
const journalStage = "journal"

// timedStages are the pipeline stages with a latency histogram.
var timedStages = []Stage{StageGenerate, StageReference, StageVerify, StageCompile, StageInterpret, StageCompare}

// CampaignTelemetry instruments one campaign. Construct with
// NewCampaignTelemetry and attach via CampaignConfig.Telemetry; all
// methods are safe on a nil receiver and from concurrent workers.
type CampaignTelemetry struct {
	// Registry holds every metric this campaign emits, the per-stage
	// latency histograms among them. Export it via PrometheusText /
	// Snapshot, or serve it with telemetry.Serve.
	Registry *telemetry.Registry
	// Spans sums each seed's stage time for the slowest-seeds list.
	Spans *telemetry.SpanRecorder

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
// given registry (a fresh private registry when reg is nil).
func NewCampaignTelemetry(reg *telemetry.Registry) *CampaignTelemetry {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	t := &CampaignTelemetry{
		Registry: reg,
		Spans:    telemetry.NewSpanRecorder(),
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
	for _, st := range timedStages {
		t.stageLat[st] = reg.HistogramWith("ratte_stage_latency_ns",
			`stage="`+string(st)+`"`, "per-seed pipeline stage latency")
	}
	t.journalLat = reg.HistogramWith("ratte_stage_latency_ns",
		`stage="`+journalStage+`"`, "per-seed pipeline stage latency")
	t.genM = gen.NewMetrics(reg)
	t.interpM = interp.NewMetrics(reg)
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

// stageDone records one stage execution of a seed.
func (t *CampaignTelemetry) stageDone(seed int64, stage Stage, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start)
	t.Spans.Record(seed, d)
	t.stageLat[stage].ObserveDuration(d)
}

// onFault is the fault-injector observer: counts fired faults by site.
func (t *CampaignTelemetry) onFault(f faultinject.Fault) {
	t.faults.Inc(f.Site)
}

// onVerdict folds one sequenced verdict into the counters and
// finalizes the seed's stage-time total. The sequencer calls it
// exactly where it records the verdict, so counts match the final
// report.
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

// journalDone records one journal append's latency. Appends belong to
// no seed, so they stay out of the slowest-seeds totals.
func (t *CampaignTelemetry) journalDone(start time.Time) {
	if t == nil {
		return
	}
	t.journalLat.ObserveDuration(time.Since(start))
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

// ProgressLine renders the one-line live status the -progress flag
// prints: seeds done/total, verdict tallies, throughput and ETA. Safe
// to call from any goroutine while the campaign runs; returns "" when
// telemetry is off or the campaign has not started.
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
	fmt.Fprintf(&b, " | eta %s", eta)
	return b.String()
}

// ReportSection renders the telemetry appendix of the final report:
// the per-stage latency table, read from the ratte_stage_latency_ns
// histograms and sorted by total time (where the wall-clock went), and
// the slowest seeds. Timings vary run to run, so this section is
// printed after — never inside — the canonical ReportText the
// determinism guards compare. Returns "" when telemetry is off or no
// stage ran.
func (t *CampaignTelemetry) ReportSection() string {
	if t == nil {
		return ""
	}
	stages := make(map[string]*telemetry.Histogram, len(timedStages)+1)
	for _, st := range timedStages {
		stages[string(st)] = t.stageLat[st]
	}
	stages[journalStage] = t.journalLat
	return telemetry.ReportSection(telemetry.StageStats(stages), t.Spans.SlowestSeeds())
}
