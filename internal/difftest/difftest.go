// Package difftest implements Ratte's test oracles (paper §3.4) and the
// end-to-end differential-testing harness of the evaluation (§4):
//
//   - NC, the non-crash oracle: the compiler must accept a statically
//     valid program and the compiled program must not crash;
//   - DT-O, differential testing across optimisation levels;
//   - DT-R, differential testing against the Ratte reference semantics.
//
// A Report captures one program's behaviour across every optimisation
// level of a (possibly bug-injected) compiler; a Campaign generates and
// tests programs until a bug is detected, which is how the Table 3
// experiment re-finds each injected defect.
package difftest

import (
	"errors"
	"fmt"
	"time"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/dialects"
	"ratte/internal/faultinject"
	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/verify"
)

// Oracle identifies which test oracle detected a difference.
type Oracle string

// The oracles of paper §3.4 / Table 3.
const (
	OracleNone Oracle = ""     // nothing detected
	OracleNC   Oracle = "NC"   // wrong rejection or runtime crash
	OracleDTO  Oracle = "DT-O" // outputs differ across optimisation levels
	OracleDTR  Oracle = "DT-R" // output differs from the reference semantics
)

// BuildConfig is one compiler configuration under test: an optimisation
// level plus a lowering strategy. The paper applies Ratte to several
// end-to-end compilations (§4.1); varying the lowering strategy is what
// reaches both homes of the ceildivsi defects (arith-expand and the
// direct convert-arith-to-llvm patterns).
type BuildConfig = compiler.Config

// BuildConfigs lists the configurations every program is tested under.
var BuildConfigs = []BuildConfig{
	{Level: compiler.O0},
	{Level: compiler.O1},
	{Level: compiler.O2},
	{Level: compiler.O1, SkipArithExpand: true},
}

// LevelResult is the outcome of compiling and running at one
// configuration.
type LevelResult struct {
	CompileErr error
	RunErr     error
	Output     string
}

// Report is the differential-testing record of one program.
type Report struct {
	Preset    string
	Reference string // expected output per the Ratte semantics
	Levels    map[BuildConfig]LevelResult
}

// TestModule compiles and runs a UB-free module under every build
// configuration of the given (possibly bug-injected) compiler and
// records the outcomes. reference is the expected output from the
// Ratte semantics.
//
// This is the campaign hot loop, so the work the configurations share
// is done once: the module is verified a single time and the common
// pass-pipeline prefix across BuildConfigs is compiled once and forked
// at each divergence point (compiler.CompileConfigs); the executor is
// instantiated over the memoized dialect registry. The outcome per
// configuration is identical to compiling each from scratch.
func TestModule(m *ir.Module, reference, preset string, bugSet bugs.Set) *Report {
	outs := compiler.CompileConfigs(m, preset, bugSet, BuildConfigs)
	return newReport(preset, reference, interpretAll(outs, runMain))
}

// newReport assembles a Report from one LevelResult per BuildConfigs
// entry, in BuildConfigs order.
func newReport(preset, reference string, lrs []LevelResult) *Report {
	rep := &Report{
		Preset:    preset,
		Reference: reference,
		Levels:    make(map[BuildConfig]LevelResult, len(BuildConfigs)),
	}
	for i, bc := range BuildConfigs {
		rep.Levels[bc] = lrs[i]
	}
	return rep
}

// interpretAll runs every successfully compiled output through run and
// passes every compile error through, one LevelResult per output.
func interpretAll(outs []compiler.ConfigResult, run func(m *ir.Module) (*interp.Result, error)) []LevelResult {
	lrs := make([]LevelResult, len(outs))
	for i, out := range outs {
		if out.Err != nil {
			lrs[i].CompileErr = out.Err
			continue
		}
		res, err := run(out.Module)
		if err != nil {
			lrs[i].RunErr = err
		} else {
			lrs[i].Output = res.Output
		}
	}
	return lrs
}

// runMain runs a compiled module's main on a fresh executor.
func runMain(m *ir.Module) (*interp.Result, error) {
	return dialects.NewExecutor().Run(m, "main")
}

// NC reports whether the non-crash oracle fires: a compile-time
// rejection of a valid program, or a runtime crash of a UB-free one.
func (r *Report) NC() bool {
	for _, lr := range r.Levels {
		if lr.CompileErr != nil || lr.RunErr != nil {
			return true
		}
	}
	return false
}

// DTO reports whether outputs differ between two optimisation levels
// that both compiled and ran. Only configurations sharing a lowering
// strategy are compared — that is what "different optimisation levels"
// means, and exactly why lowering bugs (applied identically at every
// level) are invisible to this oracle.
func (r *Report) DTO() bool {
	var first *string
	for _, bc := range BuildConfigs {
		if bc.SkipArithExpand {
			continue
		}
		lr := r.Levels[bc]
		if lr.CompileErr != nil || lr.RunErr != nil {
			continue
		}
		out := lr.Output
		if first == nil {
			first = &out
		} else if *first != out {
			return true
		}
	}
	return false
}

// DTR reports whether any successful run's output differs from the
// reference semantics.
func (r *Report) DTR() bool {
	for _, lr := range r.Levels {
		if lr.CompileErr == nil && lr.RunErr == nil && lr.Output != r.Reference {
			return true
		}
	}
	return false
}

// Detected returns the strongest-attribution oracle that fired, with
// the paper's reporting convention: a crash or rejection is reported as
// NC; otherwise a mismatch against the reference is DT-R; a pure
// cross-level difference is DT-O.
func (r *Report) Detected() Oracle {
	switch {
	case r.NC():
		return OracleNC
	case r.DTR():
		return OracleDTR
	case r.DTO():
		return OracleDTO
	}
	return OracleNone
}

// CampaignConfig drives a fuzzing campaign against one compiler build.
type CampaignConfig struct {
	Preset   string
	Programs int   // max programs to generate
	Size     int   // fragments per program
	Seed     int64 // base seed; program i uses Seed+i
	Bugs     bugs.Set
	// StopAtFirst stops at the first detection.
	StopAtFirst bool

	// Timeout is the per-program wall-clock budget across the verify,
	// compile and interpret stages (0 = unbounded). An expired budget
	// is recorded as a VerdictTimeout, not a crash or detection.
	Timeout time.Duration
	// MaxRetries bounds re-attempts of a seed whose failure was
	// transient — injected faults and fault-era timeouts (0 = no
	// retries). Deterministic failures are never retried.
	MaxRetries int
	// RetryBackoff is the base delay between attempts, doubled per
	// retry (0 = DefaultRetryBackoff).
	RetryBackoff time.Duration
	// Faults, when non-nil, enables deterministic fault injection:
	// each program seed derives its own injector via Faults.ForSeed,
	// so a campaign's fault schedule depends only on (Faults, seed) —
	// never on worker count or scheduling.
	Faults *faultinject.Spec
	// Journal, when non-nil, receives every verdict in seed order as
	// the campaign progresses (see CreateJournal / OpenJournalForResume).
	Journal *Journal
	// Resumed maps seeds to verdicts recovered from a prior journal;
	// those seeds are replayed from the record instead of re-run, which
	// is how a resumed campaign reproduces the identical final report.
	Resumed map[int64]Verdict
	// FamilySize, when greater than 1, partitions the campaign's seed
	// space into mutation families of FamilySize consecutive seeds:
	// each family generates one base program from its first seed,
	// hoists main's scalar constants into entry arguments, and tests
	// every member on its own argument vector (member 0 replays the
	// original constants; later members mutate them deterministically
	// from their seeds). Family mode shares stages across members, so
	// it cannot be combined with Faults, Timeout or Plans, and it runs
	// without coverage (see coverage.go).
	FamilySize int
	// Batched selects the shared-work execution strategy for family
	// mode: one verify and one pass-pipeline compilation per build
	// configuration for the whole family, with every member
	// tree-walking the lowered modules on its own arguments. Batched is purely an execution strategy — verdicts, journals and
	// ReportText are byte-identical with it on or off — and requires
	// FamilySize > 1.
	Batched bool
	// Telemetry, when non-nil, receives stage latencies, verdict
	// counters, generator coverage and journal gauges as the campaign runs
	// (see NewCampaignTelemetry). Telemetry observes and never steers:
	// verdicts and reports are byte-identical with it on or off, and a
	// nil Telemetry keeps every instrumentation point at a bare nil
	// check.
	Telemetry *CampaignTelemetry
	// Coverage, when non-nil, enables semantic-coverage collection:
	// every seed runs with a fresh coverage.Map threaded through the
	// generator, compiler and interpreter, its summary rides the
	// seed's Verdict (and journal line), and the sequenced summaries
	// fold into a campaign-wide union (see NewCampaignCoverage).
	// Observation-only, exactly like Telemetry; family mode collects
	// none (see coverage.go).
	Coverage *CampaignCoverage
	// Plans, when non-empty, switches the campaign to plan mode (the
	// -fuzz-pipelines flag): every program is tested under these
	// sampled legal compilation plans instead of the fixed build
	// configurations, with DT-P joining the oracle set. Plans must all
	// share cfg.Preset and pass compiler.ValidatePlan. Plan mode and
	// family mode are mutually exclusive.
	Plans []compiler.Plan
}

// validate rejects configurations whose knobs contradict each other,
// instead of silently ignoring one of them. Every campaign entry point
// and CampaignFingerprint call it.
func (cfg *CampaignConfig) validate() error {
	if cfg.FamilySize > 1 {
		knob := ""
		switch {
		case len(cfg.Plans) > 0:
			knob = "Plans"
		case cfg.Faults != nil:
			knob = "Faults"
		case cfg.Timeout != 0:
			knob = "Timeout"
		}
		if knob != "" {
			return fmt.Errorf("difftest: family mode (FamilySize %d) cannot be combined with %s", cfg.FamilySize, knob)
		}
	} else if cfg.Batched {
		return errors.New("difftest: Batched requires family mode (FamilySize > 1)")
	}
	for _, p := range cfg.Plans {
		if p.Preset != cfg.Preset {
			return fmt.Errorf("difftest: plan %s is for preset %q, not the campaign's %q", p.Key(), p.Preset, cfg.Preset)
		}
	}
	return nil
}

// Detection records one detected difference. Exactly one of Report
// (classic mode) and PlanReport (plan mode) is non-nil.
type Detection struct {
	Seed     int64
	Oracle   Oracle
	Program  *ir.Module
	Expected string
	Report   *Report
	// Plan is the Key of the compilation plan the detection is
	// attributed to; PlanReport holds the full per-plan record.
	Plan       string
	PlanReport *PlanReport
}

// CampaignResult summarises a campaign.
type CampaignResult struct {
	Programs   int
	Detections []Detection
	ByOracle   map[Oracle]int

	// Verdicts records every seed's final outcome, in seed order —
	// the in-memory mirror of the campaign journal.
	Verdicts []Verdict
	// StageFailures and Timeouts tally the contained failures; Skipped
	// tallies family members with no defined reference behaviour.
	StageFailures int
	Timeouts      int
	Skipped       int
	// Quarantined lists the seeds that never produced a testable
	// attempt, in seed order.
	Quarantined []int64

	// Plans and PlanSet describe the sampled plan set of a plan-mode
	// campaign (zero otherwise): the set size and its fingerprint.
	Plans   int
	PlanSet uint64
	// DistinctDetections counts the unique (program fingerprint, plan)
	// pairs among plan-mode detections — the dedup the paper's triage
	// needs when many seeds regenerate the same failing program.
	DistinctDetections int

	planSeen map[string]bool // (program|plan) dedup set behind DistinctDetections
}

func newCampaignResult() *CampaignResult {
	return &CampaignResult{ByOracle: make(map[Oracle]int)}
}

// record folds one verdict (and its detection, if any) into the
// result. It reports whether the verdict is a detection (the
// StopAtFirst trigger). The sequencer is its only caller.
func (res *CampaignResult) record(v Verdict, det *Detection) bool {
	res.Programs++
	res.Verdicts = append(res.Verdicts, v)
	switch v.Kind {
	case VerdictStageFailure:
		res.StageFailures++
	case VerdictTimeout:
		res.Timeouts++
	case VerdictSkipped:
		res.Skipped++
	}
	if v.Quarantined {
		res.Quarantined = append(res.Quarantined, v.Seed)
	}
	if v.Kind != VerdictDetection {
		return false
	}
	if det == nil {
		det = resumedDetection(v)
	}
	res.Detections = append(res.Detections, *det)
	res.ByOracle[v.Oracle]++
	if v.Plan != "" {
		key := fmt.Sprintf("%016x|%s", v.Program, v.Plan)
		if res.planSeen == nil {
			res.planSeen = make(map[string]bool)
		}
		if !res.planSeen[key] {
			res.planSeen[key] = true
			res.DistinctDetections++
		}
	}
	return true
}

// Classification is the Table 4 measurement of one program.
type Classification struct {
	// Compiled: the program passes the frontend verifier and every
	// pass of the preset's pipeline (at O1, matching the paper's use of
	// full compilation pipelines; the "unmod" preset only runs
	// -canonicalize, as the paper's footnote describes).
	Compiled bool
	// UBFree: the Ratte reference interpreter evaluates the program to
	// completion with a deterministic, well-defined output.
	UBFree bool
}

// Classify measures a (possibly invalid, possibly UB-carrying) module
// the way the paper's §4.2 evaluates MLIRSmith output.
func Classify(m *ir.Module, preset string) Classification {
	var cl Classification
	if preset == "unmod" {
		// No full lowering pipeline exists for arbitrary dialect mixes;
		// compileability is the verifier plus -canonicalize.
		if err := verify.Module(m, dialects.SourceSpecs()); err == nil {
			pipe, _ := compiler.NewPipeline("canonicalize")
			mm := m.Clone()
			cl.Compiled = pipe.Run(mm, &compiler.Options{}) == nil
		}
	} else {
		c := &compiler.Compiler{Level: compiler.O1}
		_, err := c.Compile(m, preset)
		cl.Compiled = err == nil
	}
	if !cl.Compiled {
		return cl
	}
	// The UB-free run: one tree walk.
	in := dialects.NewReferenceInterpreter()
	in.MaxSteps = 2_000_000
	if _, err := in.Run(m, "main"); err == nil {
		cl.UBFree = true
	} else if !interp.IsUB(err) && !interp.IsTrap(err) {
		// Structural interpretation failure (e.g. unsupported op):
		// neither compiled-and-meaningful nor UB — count as not UB-free.
		cl.UBFree = false
	}
	return cl
}
