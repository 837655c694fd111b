package difftest_test

import (
	"context"
	"testing"
	"time"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
	"ratte/internal/faultinject"
)

// faultSpec is a shared non-trivial spec for header-mismatch checks.
var faultSpec = faultinject.Spec{Seed: 7, Rate: 0.5}

// fastRetries makes retry backoff negligible in tests.
const fastRetries = time.Microsecond

// TestStageFailureContainment: with faults injected at every site on
// every decision (Rate 1), the campaign must still verdict every seed —
// contained stage failures, never a crash — and account attempts,
// fault hits and quarantine correctly.
func TestStageFailureContainment(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: 6,
		Size:     12,
		Seed:     1000,
		Bugs:     bugs.Only(bugs.RemoveDeadValuesCall),
		Faults: &faultinject.Spec{
			Seed:  1,
			Rate:  1,
			Kinds: []faultinject.Kind{faultinject.KindError},
		},
		MaxRetries:   1,
		RetryBackoff: fastRetries,
	}
	res, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Programs != cfg.Programs || len(res.Verdicts) != cfg.Programs {
		t.Fatalf("verdicted %d/%d programs", len(res.Verdicts), cfg.Programs)
	}
	if res.StageFailures != cfg.Programs {
		t.Fatalf("stage failures: %d, want %d", res.StageFailures, cfg.Programs)
	}
	if len(res.Quarantined) != cfg.Programs {
		t.Fatalf("quarantined: %d, want %d", len(res.Quarantined), cfg.Programs)
	}
	for i, v := range res.Verdicts {
		if v.Kind != difftest.VerdictStageFailure {
			t.Fatalf("verdict %d: kind %s, want stage-failure", i, v.Kind)
		}
		if v.Attempts != cfg.MaxRetries+1 {
			t.Fatalf("verdict %d: attempts %d, want %d", i, v.Attempts, cfg.MaxRetries+1)
		}
		if v.Faults < v.Attempts {
			t.Fatalf("verdict %d: %d fault hits across %d attempts", i, v.Faults, v.Attempts)
		}
		if !v.Quarantined || v.Failure == nil || !v.Failure.Injected {
			t.Fatalf("verdict %d: not a quarantined injected failure: %+v", i, v)
		}
		if v.Failure.Reason == "" {
			t.Fatalf("verdict %d: empty failure reason", i)
		}
	}
}

// TestInjectedPanicContainment: an injected panic is caught by the
// stage guard and recorded with a stack and the module text — the
// campaign keeps going.
func TestInjectedPanicContainment(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: 4,
		Size:     12,
		Seed:     2000,
		Faults: &faultinject.Spec{
			Seed:  2,
			Rate:  1,
			Kinds: []faultinject.Kind{faultinject.KindPanic},
		},
		RetryBackoff: fastRetries,
	}
	res, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Verdicts {
		if v.Kind != difftest.VerdictStageFailure || v.Failure == nil {
			t.Fatalf("verdict %d: %+v, want contained stage failure", i, v)
		}
		if !v.Failure.Injected {
			t.Fatalf("verdict %d: panic not marked injected", i)
		}
		if v.Failure.Stack == "" {
			t.Fatalf("verdict %d: contained panic has no stack", i)
		}
		if v.Failure.Module == "" {
			t.Fatalf("verdict %d: contained panic has no module text", i)
		}
	}
}

// TestRetrySucceedsAfterTransientFault: a fault budget of one means the
// first attempt fails injected and the retry runs clean — the seed must
// end with its true verdict, Attempts 2, one fault hit, no quarantine.
func TestRetrySucceedsAfterTransientFault(t *testing.T) {
	base := difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: 6,
		Size:     12,
		Seed:     3000,
		Bugs:     bugs.Only(bugs.RemoveDeadValuesCall),
	}
	clean, err := difftest.RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Faults = &faultinject.Spec{
		Seed:      3,
		Rate:      1,
		Kinds:     []faultinject.Kind{faultinject.KindError},
		MaxFaults: 1,
	}
	cfg.MaxRetries = 2
	cfg.RetryBackoff = fastRetries
	res, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Verdicts {
		want := clean.Verdicts[i]
		if v.Kind != want.Kind || v.Oracle != want.Oracle {
			t.Fatalf("verdict %d: (%s,%s) after retry, clean run got (%s,%s)",
				i, v.Kind, v.Oracle, want.Kind, want.Oracle)
		}
		if v.Attempts != 2 {
			t.Fatalf("verdict %d: attempts %d, want 2", i, v.Attempts)
		}
		if v.Faults != 1 {
			t.Fatalf("verdict %d: fault hits %d, want 1", i, v.Faults)
		}
		if v.Quarantined {
			t.Fatalf("verdict %d: quarantined despite clean retry", i)
		}
	}
}

// TestTimeoutVerdict: an expired per-program budget is its own verdict
// kind — not a crash, not an NC detection — and a clean program that
// blew its budget is not retried (it would blow it again).
func TestTimeoutVerdict(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset:     "ariths",
		Programs:   4,
		Size:       12,
		Seed:       4000,
		Timeout:    time.Nanosecond, // expired before the first stage check
		MaxRetries: 3,
	}
	res, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeouts != cfg.Programs {
		t.Fatalf("timeouts: %d, want %d", res.Timeouts, cfg.Programs)
	}
	for i, v := range res.Verdicts {
		if v.Kind != difftest.VerdictTimeout {
			t.Fatalf("verdict %d: kind %s, want timeout", i, v.Kind)
		}
		if v.Attempts != 1 {
			t.Fatalf("verdict %d: %d attempts for a deterministic timeout, want 1", i, v.Attempts)
		}
		if !v.Quarantined {
			t.Fatalf("verdict %d: timeout not quarantined", i)
		}
	}
}

// TestFaultedCampaignDeterminism: fault injection is addressed by
// (spec, seed, site, occurrence) — never by wall clock or goroutine —
// so a faulted campaign must produce byte-identical verdicts serial
// vs parallel at any worker count, and across repeat runs.
func TestFaultedCampaignDeterminism(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: 24,
		Size:     16,
		Seed:     97,
		Bugs:     bugs.Only(bugs.RemoveDeadValuesCall),
		Faults: &faultinject.Spec{
			Seed: 11,
			Rate: 0.002,
			Kinds: []faultinject.Kind{
				faultinject.KindError, faultinject.KindPanic, faultinject.KindDelay,
			},
		},
		MaxRetries:   1,
		RetryBackoff: fastRetries,
	}
	serial, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	affected := 0
	for _, v := range serial.Verdicts {
		if v.Faults > 0 {
			affected++
		}
	}
	if affected == 0 {
		t.Fatalf("no seed was affected by faults; the determinism check needs some")
	}
	again, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := difftest.DiffResults(serial, again); d != "" {
		t.Fatalf("repeat serial run differs: %s", d)
	}
	for _, workers := range []int{2, 4, 8} {
		parallel, err := difftest.RunCampaignParallel(cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := difftest.DiffResults(serial, parallel); d != "" {
			t.Fatalf("workers=%d: %s", workers, d)
		}
	}
}

// TestUnaffectedSeedsMatchFaultFreeRun: seeds where no fault fired must
// be byte-identical to the fault-free campaign — injection must have
// zero blast radius beyond the seeds it actually touched (in
// particular, nothing shared across seeds, such as a compiled-program
// memo, may carry a fault to another seed).
func TestUnaffectedSeedsMatchFaultFreeRun(t *testing.T) {
	base := difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: 24,
		Size:     16,
		Seed:     97,
		Bugs:     bugs.Only(bugs.RemoveDeadValuesCall),
	}
	clean, err := difftest.RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Faults = &faultinject.Spec{Seed: 11, Rate: 0.002}
	cfg.MaxRetries = 0
	cfg.RetryBackoff = fastRetries
	faulty, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unaffected := 0
	for i, v := range faulty.Verdicts {
		if v.Faults > 0 {
			continue
		}
		unaffected++
		want := clean.Verdicts[i]
		want.Faults = v.Faults // zero either way
		if d := difftest.DiffVerdicts([]difftest.Verdict{want}, []difftest.Verdict{v}); d != "" {
			t.Fatalf("unaffected seed %d drifted from fault-free run: %s", v.Seed, d)
		}
	}
	if unaffected == 0 {
		t.Fatalf("every seed was affected; lower the rate")
	}
}

// TestCampaignCancellation: cancelling the caller's context stops both
// engines promptly with the partial result and ctx.Err().
func TestCampaignCancellation(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: 50,
		Size:     16,
		Seed:     97,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() (*difftest.CampaignResult, error){
		"serial":   func() (*difftest.CampaignResult, error) { return difftest.RunCampaignCtx(ctx, cfg) },
		"parallel": func() (*difftest.CampaignResult, error) { return difftest.RunCampaignParallelCtx(ctx, cfg, 4) },
	} {
		res, err := run()
		if err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res == nil {
			t.Errorf("%s: cancelled campaign must still return its partial result", name)
		} else if res.Programs != len(res.Verdicts) {
			t.Errorf("%s: partial result inconsistent: %d programs, %d verdicts", name, res.Programs, len(res.Verdicts))
		}
	}
}
