// Campaign verdicts: the per-seed outcome record of the fault-isolated
// engine. Every seed a campaign inspects ends in exactly one Verdict —
// clean, detection, contained stage failure, or watchdog timeout — so
// a crash-prone substrate degrades a campaign's yield instead of
// killing it, and a journal of verdicts is a complete, resumable
// account of the run.
package difftest

import (
	"fmt"
	"runtime/debug"

	"ratte/internal/faultinject"
	"ratte/internal/ir"
)

// Stage names one step of the per-seed pipeline.
type Stage string

// The per-seed stages, in execution order. StageReference only exists
// in family mode, where the expected output is computed per member
// instead of arriving with the generated program.
const (
	StageGenerate  Stage = "generate"
	StageReference Stage = "reference"
	StageVerify    Stage = "verify"
	StageCompile   Stage = "compile"
	StageInterpret Stage = "interpret"
	StageCompare   Stage = "compare"
)

// StageFailure is a contained failure of one per-seed stage: a panic
// caught by the stage guard, or an injected transient error whose
// retries were exhausted. It is recorded as the seed's verdict instead
// of crashing the campaign.
type StageFailure struct {
	Stage Stage `json:"stage"`
	Seed  int64 `json:"seed"`
	// Reason is the panic value or error text.
	Reason string `json:"reason"`
	// Stack is the goroutine stack at the panic site (empty for
	// non-panic failures). Stacks differ across worker counts and runs, so
	// verdict comparison ignores them.
	Stack string `json:"stack,omitempty"`
	// Module is the failing program's textual form, when available —
	// everything needed to reproduce the failure offline.
	Module string `json:"module,omitempty"`
	// Injected marks failures manufactured by the fault-injection
	// layer; the retry layer treats those as transient.
	Injected bool `json:"injected,omitempty"`
}

// VerdictKind classifies one seed's final outcome.
type VerdictKind string

// The verdict kinds.
const (
	// VerdictOK: the program behaved identically under every build
	// configuration and matched the reference.
	VerdictOK VerdictKind = "ok"
	// VerdictDetection: a differential-testing oracle fired.
	VerdictDetection VerdictKind = "detection"
	// VerdictStageFailure: a stage panicked (or kept failing with
	// injected errors) and the failure was contained.
	VerdictStageFailure VerdictKind = "stage-failure"
	// VerdictTimeout: the per-program wall-clock budget expired.
	VerdictTimeout VerdictKind = "timeout"
	// VerdictSkipped: a mutation-family member whose reference run had
	// no defined output (mutated constants reached UB, a trap, or the
	// step budget) — there is nothing to differentially test against.
	VerdictSkipped VerdictKind = "skipped"
)

// Verdict is one seed's final, journaled outcome.
type Verdict struct {
	Seed    int64         `json:"seed"`
	Kind    VerdictKind   `json:"kind"`
	Oracle  Oracle        `json:"oracle,omitempty"`
	Failure *StageFailure `json:"failure,omitempty"`
	// Attempts is 1 plus the transient-failure retries taken.
	Attempts int `json:"attempts"`
	// Faults counts injected fault points that fired across all
	// attempts; a seed with zero is "unaffected" and must behave
	// byte-identically to a fault-free run.
	Faults int `json:"faults,omitempty"`
	// Quarantined marks seeds that could not be tested (stage failure
	// or timeout after exhausting retries); they are listed in
	// CampaignResult.Quarantined for offline triage.
	Quarantined bool `json:"quarantined,omitempty"`
	// Plan is the Key (name|fingerprint) of the compilation plan a
	// plan-mode detection is attributed to. Empty outside plan mode
	// and for non-detection verdicts, so classic journals are
	// unchanged byte for byte.
	Plan string `json:"plan,omitempty"`
	// Program is the detected program's ir.Fingerprint — the program
	// half of the (program, plan) dedup key plan-mode reports count
	// distinct detections by. Zero outside plan-mode detections.
	Program uint64 `json:"program,omitempty"`
	// Coverage is the seed's semantic-coverage summary (site name →
	// hit count) when the campaign runs with coverage attached; nil
	// otherwise, so coverage-off journals are unchanged byte for byte.
	// Riding the verdict is what lets a journal resume — and a fleet
	// coordinator merging shard uploads — reconstruct the campaign
	// union exactly.
	Coverage map[string]uint64 `json:"cov,omitempty"`
}

// guard runs one stage with panic containment: a panic becomes a
// structured *StageFailure (stage, seed, panic value, stack, module
// text) instead of unwinding the campaign.
func guard(stage Stage, seed int64, m *ir.Module, fn func()) (sf *StageFailure) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		sf = &StageFailure{
			Stage:    stage,
			Seed:     seed,
			Reason:   fmt.Sprint(r),
			Stack:    string(debug.Stack()),
			Module:   safePrint(m),
			Injected: faultinject.IsInjectedPanic(r),
		}
	}()
	fn()
	return nil
}

// safePrint renders a module for a failure record, tolerating modules
// a panicking pass left in an unprintable state.
func safePrint(m *ir.Module) (text string) {
	if m == nil {
		return ""
	}
	defer func() {
		if recover() != nil {
			text = "<module unprintable>"
		}
	}()
	return ir.Print(m)
}
