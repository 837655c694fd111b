// The fault-isolated per-seed pipeline: generate → verify → compile →
// interpret → compare, each stage guarded against panics, the whole
// attempt bounded by a per-program wall-clock budget, with bounded
// retry for transient (injected) failures. The campaign engine runs
// every classic and plan-mode seed through this file, which is what
// makes verdicts independent of worker count: everything here depends
// only on (config, seed).
package difftest

import (
	"context"
	"errors"
	"time"

	"ratte/internal/compiler"
	"ratte/internal/coverage"
	"ratte/internal/dialects"
	"ratte/internal/faultinject"
	"ratte/internal/gen"
	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/verify"
)

// DefaultRetryBackoff is the base delay between attempts of a seed
// that failed transiently (doubled per retry) when CampaignConfig
// leaves RetryBackoff zero.
const DefaultRetryBackoff = time.Millisecond

// seedOutcome is everything one seed's pipeline produced.
type seedOutcome struct {
	verdict   Verdict
	detection *Detection
	// genErr is a non-panic generation failure; it aborts the whole
	// campaign exactly as it always has (a broken generator is a bug
	// in the fuzzer, not in the compiler under test).
	genErr error
	// aborted means the campaign context was cancelled mid-seed; the
	// seed has no verdict and the engine should drain and stop.
	aborted bool
}

// failedOutcome records a seed whose contained stage failure left it
// with no testable attempt.
func failedOutcome(seed int64, sf *StageFailure) seedOutcome {
	return seedOutcome{verdict: Verdict{
		Seed: seed, Kind: VerdictStageFailure, Failure: sf,
		Attempts: 1, Quarantined: true,
	}}
}

// testSeed differentially tests one generated program, retrying
// transient failures up to cfg.MaxRetries with exponential backoff and
// quarantining seeds that never produce a clean attempt. One injector
// serves all attempts, so retries see fresh fault decisions (site
// occurrence counters advance) — the model of a transient failure.
func testSeed(ctx context.Context, cfg *CampaignConfig, seed int64, prog *gen.Program, cov *coverage.Map) seedOutcome {
	var inj *faultinject.Injector
	if cfg.Faults != nil {
		inj = faultinject.New(cfg.Faults.ForSeed(seed))
		if cfg.Telemetry != nil {
			inj.SetObserver(cfg.Telemetry.onFault)
		}
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	for attempt := 1; ; attempt++ {
		out := testOnce(ctx, cfg, seed, prog, inj, cov)
		if out.aborted {
			return seedOutcome{aborted: true}
		}
		if !out.transient || attempt > cfg.MaxRetries {
			v := out.verdict
			v.Attempts = attempt
			v.Faults = inj.Hits()
			if v.Kind == VerdictStageFailure || v.Kind == VerdictTimeout {
				v.Quarantined = true
			}
			// The summary spans every attempt (retries are themselves
			// deterministic per seed), so the verdict's coverage is a
			// pure function of (config, seed).
			v.Coverage = cov.Summary()
			return seedOutcome{verdict: v, detection: out.detection}
		}
		time.Sleep(backoff << (attempt - 1))
	}
}

// generateStage produces the seed's program with panic containment.
// Generation runs outside the per-program budget and the fault
// injector: the generator is our own deterministic code, and a
// contained panic here is a generator bug worth a verdict of its own.
// cov is the seed's coverage map (nil when coverage is off).
func generateStage(cfg *CampaignConfig, seed int64, cov *coverage.Map) (p *gen.Program, sf *StageFailure, err error) {
	t0 := cfg.Telemetry.stageStart()
	sf = guard(StageGenerate, seed, nil, func() {
		p, err = gen.Generate(gen.Config{
			Preset: cfg.Preset, Size: cfg.Size, Seed: seed,
			Metrics:  cfg.Telemetry.genMetrics(),
			Coverage: cov,
		})
	})
	if sf != nil {
		p, err = nil, nil
	}
	cfg.Telemetry.stageDone(seed, StageGenerate, t0)
	return p, sf, err
}

// verifyCompile runs the verify and compile stages over m, each under
// panic containment with its span. A verification error is not a
// stage failure: it is the wrong-rejection half of the NC oracle,
// returned as verr (see rejected) with nothing compiled. The module is
// compiled under cfg.Plans in plan mode and under BuildConfigs
// otherwise, sharing pipeline prefixes either way.
func verifyCompile(cfg *CampaignConfig, seed int64, m *ir.Module, opts *compiler.Options) (outs []compiler.ConfigResult, verr error, sf *StageFailure) {
	t0 := cfg.Telemetry.stageStart()
	sf = guard(StageVerify, seed, m, func() {
		verr = verify.Module(m, dialects.SourceSpecs())
	})
	cfg.Telemetry.stageDone(seed, StageVerify, t0)
	if sf != nil || verr != nil {
		return nil, verr, sf
	}
	opts.SkipVerify = true
	tc := cfg.Telemetry.stageStart()
	sf = guard(StageCompile, seed, m, func() {
		if len(cfg.Plans) > 0 {
			outs = compiler.CompilePlansOpts(m, opts, cfg.Plans)
		} else {
			outs = compiler.CompileConfigsOpts(m, cfg.Preset, opts, BuildConfigs)
		}
	})
	cfg.Telemetry.stageDone(seed, StageCompile, tc)
	return outs, nil, sf
}

// rejected records a verification error against every configuration
// (every plan in plan mode), exactly as the compiler reports it.
func rejected(cfg *CampaignConfig, verr error) []LevelResult {
	n := len(BuildConfigs)
	if len(cfg.Plans) > 0 {
		n = len(cfg.Plans)
	}
	lrs := make([]LevelResult, n)
	for i := range lrs {
		lrs[i].CompileErr = verr
	}
	return lrs
}

// interpretStage is interpretAll as a guarded stage with its span.
func interpretStage(cfg *CampaignConfig, seed int64, m *ir.Module, outs []compiler.ConfigResult, run func(m *ir.Module) (*interp.Result, error)) (lrs []LevelResult, sf *StageFailure) {
	t0 := cfg.Telemetry.stageStart()
	sf = guard(StageInterpret, seed, m, func() {
		lrs = interpretAll(outs, run)
	})
	cfg.Telemetry.stageDone(seed, StageInterpret, t0)
	return lrs, sf
}

// compareStage runs the oracles over det's report (Report, or
// PlanReport in plan mode) under panic containment, fills in det's
// oracle and plan, and returns the seed's verdict: ok or detection.
func compareStage(cfg *CampaignConfig, m *ir.Module, det *Detection) (Verdict, *StageFailure) {
	t0 := cfg.Telemetry.stageStart()
	sf := guard(StageCompare, det.Seed, m, func() {
		if det.PlanReport != nil {
			det.Oracle, det.Plan = det.PlanReport.Detected()
		} else {
			det.Oracle = det.Report.Detected()
		}
	})
	cfg.Telemetry.stageDone(det.Seed, StageCompare, t0)
	switch {
	case sf != nil:
		return Verdict{}, sf
	case det.Oracle == OracleNone:
		return Verdict{Seed: det.Seed, Kind: VerdictOK}, nil
	}
	v := Verdict{Seed: det.Seed, Kind: VerdictDetection, Oracle: det.Oracle, Plan: det.Plan}
	if det.PlanReport != nil {
		v.Program = ir.Fingerprint(m)
	}
	return v, nil
}

// attemptResult is one attempt's outcome, before retry accounting.
type attemptResult struct {
	verdict   Verdict
	detection *Detection
	// transient marks failures worth retrying: injected faults, and
	// timeouts that an injected delay plausibly caused.
	transient bool
	aborted   bool
}

// testOnce is one guarded, deadline-bounded attempt: the verify,
// compile, interpret and compare stages of TestModule (TestModulePlans
// in plan mode), each under panic containment, with the per-program
// context threaded through the compiler's pass pipeline and both
// execution engines.
func testOnce(ctx context.Context, cfg *CampaignConfig, seed int64, prog *gen.Program, inj *faultinject.Injector, cov *coverage.Map) attemptResult {
	hitsBefore := inj.Hits()
	pctx := ctx
	cancel := func() {}
	if cfg.Timeout > 0 {
		pctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
	}
	defer cancel()

	m := prog.Module
	fail := func(sf *StageFailure) attemptResult {
		if ctx.Err() != nil && !sf.Injected {
			return attemptResult{aborted: true}
		}
		return attemptResult{
			verdict:   Verdict{Seed: seed, Kind: VerdictStageFailure, Failure: sf},
			transient: sf.Injected,
		}
	}

	opts := &compiler.Options{Bugs: cfg.Bugs, Ctx: pctx, Faults: inj, Coverage: cov}
	outs, verr, sf := verifyCompile(cfg, seed, m, opts)
	if sf != nil {
		return fail(sf)
	}
	var lrs []LevelResult
	if verr != nil {
		lrs = rejected(cfg, verr)
	} else {
		lrs, sf = interpretStage(cfg, seed, m, outs, func(m *ir.Module) (*interp.Result, error) {
			ex := dialects.NewExecutor()
			ex.Ctx = pctx
			ex.Faults = inj
			ex.Metrics = cfg.Telemetry.interpMetrics()
			ex.Coverage = cov
			return ex.Run(m, "main")
		})
		if sf != nil {
			return fail(sf)
		}
	}

	// Classification sweep: injected errors and expired budgets landed
	// in the per-configuration results as CompileErr/RunErr; they must
	// become stage-failure/timeout verdicts, not masquerade as NC
	// detections.
	var injectedErr error
	var injectedStage Stage
	timedOut := false
	classify := func(err error, stage Stage) {
		if faultinject.IsInjected(err) && injectedErr == nil {
			injectedErr, injectedStage = err, stage
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			timedOut = true
		}
	}
	for _, lr := range lrs {
		classify(lr.CompileErr, StageCompile)
		classify(lr.RunErr, StageInterpret)
	}
	if ctx.Err() != nil {
		// The campaign itself was cancelled (signal, StopAtFirst):
		// whatever this attempt observed is an artifact of shutdown.
		return attemptResult{aborted: true}
	}
	if injectedErr != nil {
		return attemptResult{
			verdict: Verdict{Seed: seed, Kind: VerdictStageFailure, Failure: &StageFailure{
				Stage:    injectedStage,
				Seed:     seed,
				Reason:   injectedErr.Error(),
				Module:   safePrint(m),
				Injected: true,
			}},
			transient: true,
		}
	}
	if timedOut {
		return attemptResult{
			verdict: Verdict{Seed: seed, Kind: VerdictTimeout},
			// A timeout during a fault-injected attempt (delays!) is
			// worth retrying; a clean program that blows its budget
			// will blow it again.
			transient: inj.Hits() > hitsBefore,
		}
	}

	det := &Detection{Seed: seed, Program: m, Expected: prog.Expected}
	if len(cfg.Plans) > 0 {
		det.PlanReport = newPlanReport(prog.Expected, cfg.Plans, lrs)
	} else {
		det.Report = newReport(cfg.Preset, prog.Expected, lrs)
	}
	v, sf := compareStage(cfg, m, det)
	if sf != nil {
		return fail(sf)
	}
	if v.Kind != VerdictDetection {
		det = nil
	}
	return attemptResult{verdict: v, detection: det}
}

// resumedDetection reconstructs the Detection entry for a seed whose
// verdict was replayed from a journal. The program and report are not
// journaled — they are regenerable from the seed — so only the fields
// the final report uses are populated.
func resumedDetection(v Verdict) *Detection {
	return &Detection{Seed: v.Seed, Oracle: v.Oracle, Plan: v.Plan}
}
