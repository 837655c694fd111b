// Plan-mode differential testing: the phase-ordering axis. A classic
// campaign tests every program under the four fixed build
// configurations; a plan-mode campaign (CampaignConfig.Plans non-empty,
// the -fuzz-pipelines flag) tests it under N sampled legal pass plans
// instead, compiled through the same prefix tree. The oracles carry
// over — NC and DT-R mean exactly what they always mean — plus DT-P,
// the cross-plan analogue of DT-O: two legal plans over the same
// program must agree.
//
// Everything is keyed by Plan.Key (name|fingerprint), never by the
// deliberately non-unique display name: two sampled plans of the same
// length must not silently merge in reports, journals or comparisons.
package difftest

import (
	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/ir"
)

// OracleDTP is differential testing across compilation plans: two
// legal plans compiled and ran, and their outputs differ. Like DT-O it
// is structurally shadowed in attribution — the reference output is
// always defined, so a cross-plan divergence implies at least one plan
// diverged from the reference and DT-R fires first — but it is the
// honest name for what a phase-ordering campaign is hunting, and
// PlanReport.DTP keeps it observable on its own.
const OracleDTP Oracle = "DT-P"

// PlanReport is the differential-testing record of one program across
// a plan set — the plan-mode analogue of Report. Results are keyed by
// Plan.Key.
type PlanReport struct {
	Preset    string
	Reference string // expected output per the Ratte semantics
	Plans     []compiler.Plan
	Results   map[string]LevelResult
}

// TestModulePlans compiles and runs a UB-free module under every plan
// of the given (possibly bug-injected) compiler build and records the
// outcomes, sharing the plans' common pipeline prefixes. reference is
// the expected output from the Ratte semantics.
func TestModulePlans(m *ir.Module, reference string, plans []compiler.Plan, bugSet bugs.Set) *PlanReport {
	outs := compiler.CompilePlans(m, plans, bugSet)
	return newPlanReport(reference, plans, interpretAll(outs, runMain))
}

// newPlanReport assembles a PlanReport from one LevelResult per plan,
// in plan order.
func newPlanReport(reference string, plans []compiler.Plan, lrs []LevelResult) *PlanReport {
	preset := ""
	if len(plans) > 0 {
		preset = plans[0].Preset
	}
	rep := &PlanReport{
		Preset:    preset,
		Reference: reference,
		Plans:     plans,
		Results:   make(map[string]LevelResult, len(plans)),
	}
	for i, p := range plans {
		rep.Results[p.Key()] = lrs[i]
	}
	return rep
}

// NC reports whether the non-crash oracle fires under any plan, and
// returns the first offending plan's key in plan-set order.
func (r *PlanReport) NC() (string, bool) {
	for _, p := range r.Plans {
		lr := r.Results[p.Key()]
		if lr.CompileErr != nil || lr.RunErr != nil {
			return p.Key(), true
		}
	}
	return "", false
}

// DTR reports whether any successful plan's output differs from the
// reference semantics, and returns the first offending plan's key.
func (r *PlanReport) DTR() (string, bool) {
	for _, p := range r.Plans {
		lr := r.Results[p.Key()]
		if lr.CompileErr == nil && lr.RunErr == nil && lr.Output != r.Reference {
			return p.Key(), true
		}
	}
	return "", false
}

// DTP reports whether two plans that both compiled and ran disagree,
// and returns the key of the first plan differing from the first
// successful one.
func (r *PlanReport) DTP() (string, bool) {
	var first *string
	for _, p := range r.Plans {
		lr := r.Results[p.Key()]
		if lr.CompileErr != nil || lr.RunErr != nil {
			continue
		}
		out := lr.Output
		if first == nil {
			first = &out
		} else if *first != out {
			return p.Key(), true
		}
	}
	return "", false
}

// Detected returns the strongest-attribution oracle that fired and the
// plan the detection is attributed to, with the same reporting
// convention as Report.Detected: crash or rejection is NC; a mismatch
// against the reference is DT-R; a pure cross-plan difference is DT-P.
func (r *PlanReport) Detected() (Oracle, string) {
	if key, ok := r.NC(); ok {
		return OracleNC, key
	}
	if key, ok := r.DTR(); ok {
		return OracleDTR, key
	}
	if key, ok := r.DTP(); ok {
		return OracleDTP, key
	}
	return OracleNone, ""
}
