// campaign-fault-tolerance/<preset>: the robustness contract of the
// fault-isolated campaign engine, checked end to end under deterministic
// fault injection. With faults manufactured at every instrumented site
// (registry lookups, pass execution, interpreter dispatch), a campaign
// must still:
//
//   - verdict every seed — panics and injected errors are contained as
//     stage failures, never crashes;
//   - agree byte-for-byte between the serial and parallel engines, and
//     across repeat runs — the fault schedule is addressed by
//     (spec, seed, site, occurrence), never by wall clock or goroutine;
//   - leave unaffected seeds (zero fault hits) byte-identical to the
//     fault-free run — injection has no blast radius beyond the seeds
//     it touches, in particular nothing shared across seeds may carry
//     a fault to another seed;
//   - leak no goroutines once the run completes.
//
// Module-free, like campaign-agreement: the campaign seed schedule is
// the input, so there is nothing to shrink.
package conformance

import (
	"fmt"
	"runtime"
	"time"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
	"ratte/internal/faultinject"
	"ratte/internal/ir"
)

// FamilyFaultTolerance names the fault-tolerance oracle family.
const FamilyFaultTolerance = "campaign-fault-tolerance"

type faultTolerance struct{ preset string }

// NewFaultTolerance returns the fault-injected campaign robustness
// oracle for one preset.
func NewFaultTolerance(preset string) Oracle { return faultTolerance{preset} }

func (o faultTolerance) Name() string { return FamilyFaultTolerance + "/" + o.preset }

func (o faultTolerance) Generate(int64) (*ir.Module, error) { return nil, nil }

func (o faultTolerance) Check(_ *ir.Module, seed int64) *Failure {
	goroutinesBefore := runtime.NumGoroutine()

	base := difftest.CampaignConfig{
		Preset:   o.preset,
		Programs: 4,
		Size:     15,
		Seed:     seed,
		Bugs:     bugs.All(),
	}
	clean, err := difftest.RunCampaign(base)
	if err != nil {
		return &Failure{Detail: fmt.Sprintf("fault-free baseline failed: %v", err)}
	}

	// The paper-scale smoke rate: ~2% of fault decisions fire, every
	// kind enabled. Delays stay at the small default and no per-program
	// timeout is set, so the fault schedule alone — not scheduling
	// noise — determines every verdict.
	cfg := base
	cfg.Faults = &faultinject.Spec{
		Seed: seed,
		Rate: 0.02,
		Kinds: []faultinject.Kind{
			faultinject.KindError, faultinject.KindPanic, faultinject.KindDelay,
		},
	}
	cfg.MaxRetries = 2
	cfg.RetryBackoff = time.Microsecond

	serial, err := difftest.RunCampaign(cfg)
	if err != nil {
		return &Failure{Detail: fmt.Sprintf("fault-injected serial campaign failed: %v", err)}
	}
	if len(serial.Verdicts) != cfg.Programs {
		return &Failure{Detail: fmt.Sprintf("fault-injected campaign verdicted %d of %d seeds", len(serial.Verdicts), cfg.Programs)}
	}

	parallel, err := difftest.RunCampaignParallel(cfg, 4)
	if err != nil {
		return &Failure{Detail: fmt.Sprintf("fault-injected parallel campaign failed: %v", err)}
	}
	if d := difftest.DiffResults(serial, parallel); d != "" {
		return &Failure{Detail: fmt.Sprintf("fault-injected engines disagree: %s", d)}
	}

	// Unaffected seeds must be untouched by the fault machinery.
	for i, v := range serial.Verdicts {
		if v.Faults > 0 {
			continue
		}
		want := clean.Verdicts[i]
		if d := difftest.DiffVerdicts([]difftest.Verdict{want}, []difftest.Verdict{v}); d != "" {
			return &Failure{Detail: fmt.Sprintf("unaffected seed %d drifted from fault-free run: %s", v.Seed, d)}
		}
	}

	// Goroutine hygiene: the pipeline's workers, feeders and closers
	// must all have exited. Give the runtime a moment to reap them.
	deadline := time.Now().Add(time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= goroutinesBefore {
			break
		}
		if time.Now().After(deadline) {
			return &Failure{Detail: fmt.Sprintf("goroutine leak: %d before campaigns, %d after", goroutinesBefore, runtime.NumGoroutine())}
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
