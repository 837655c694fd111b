// The interp-engine-agreement oracle: the compiled execution engine
// and the tree walker are the same semantics in two implementations,
// and the engine's contract is byte-identical Results — same output,
// same returned values, and on failure the same error text and the
// same UB/trap classification. This oracle enforces the contract
// end-to-end: a generated module and every build configuration's
// lowered form of it run under both engines: Run tree-walks, and the
// compiled side goes through an explicit Compile and RunProgram.
package conformance

import (
	"fmt"

	"ratte/internal/compiler"
	"ratte/internal/dialects"
	"ratte/internal/difftest"
	"ratte/internal/interp"
	"ratte/internal/ir"
)

// FamilyEngineAgree is the compiled-vs-tree-walking engine oracle.
const FamilyEngineAgree = "interp-engine-agreement"

type engineAgree struct{ preset string }

// NewEngineAgreement returns the oracle asserting the compiled
// execution engine and the tree walker produce byte-identical results
// on one preset's modules, at source level and after every build
// configuration's lowering.
func NewEngineAgreement(preset string) Oracle { return engineAgree{preset} }

func (o engineAgree) Name() string { return FamilyEngineAgree + "/" + o.preset }

func (o engineAgree) Generate(seed int64) (*ir.Module, error) {
	return generate(o.preset, 25, seed)
}

func (o engineAgree) Check(m *ir.Module, _ int64) *Failure {
	if f := CheckEngineAgreement(m, "source"); f != nil {
		return f
	}
	outs := compiler.CompileConfigs(m, o.preset, nil, difftest.BuildConfigs)
	for i, bc := range difftest.BuildConfigs {
		if outs[i].Err != nil {
			continue // not this oracle's property; difftest owns rejections
		}
		if f := CheckEngineAgreement(outs[i].Module, bc.String()); f != nil {
			return f
		}
	}
	return nil
}

// engineOutcome is everything the agreement compares: Result bytes on
// success, error text and classification on failure.
type engineOutcome struct {
	ok       bool
	output   string
	returned string
	errText  string
	ub       bool
	trap     bool
}

func outcomeOf(res *interp.Result, err error) engineOutcome {
	if err != nil {
		return engineOutcome{errText: err.Error(), ub: interp.IsUB(err), trap: interp.IsTrap(err)}
	}
	return engineOutcome{ok: true, output: res.Output, returned: fmt.Sprintf("%v", res.Returned)}
}

func (a engineOutcome) diff(b engineOutcome) string {
	switch {
	case a.ok != b.ok:
		return fmt.Sprintf("tree ok=%v (err %q) vs compiled ok=%v (err %q)", a.ok, a.errText, b.ok, b.errText)
	case a.output != b.output:
		return fmt.Sprintf("output %q vs compiled %q", a.output, b.output)
	case a.returned != b.returned:
		return fmt.Sprintf("returned %s vs compiled %s", a.returned, b.returned)
	case a.errText != b.errText:
		return fmt.Sprintf("error %q vs compiled %q", a.errText, b.errText)
	case a.ub != b.ub || a.trap != b.trap:
		return fmt.Sprintf("error class ub=%v trap=%v vs compiled ub=%v trap=%v", a.ub, a.trap, b.ub, b.trap)
	}
	return ""
}

// engineMaxSteps bounds both engines identically, so a program that
// trips the step limit trips it at the same step under each.
const engineMaxSteps = 2_000_000

// CheckEngineAgreement runs one module under the tree walker and the
// compiled engine — the latter twice, with superinstruction fusion
// disabled and enabled — (all over the full executor registry, so any
// lowering level is accepted) and reports the first disagreement;
// stage labels the module's position in the pipeline for the report.
// The three-way check is what pins fusion as a pure execution
// strategy: fused and unfused compiled programs must be byte-identical
// to each other AND to the walker, including error text and UB/trap
// classification. Exported for the regression-corpus replayer, which
// re-checks the agreement over every persisted counterexample.
func CheckEngineAgreement(m *ir.Module, stage string) *Failure {
	tree := dialects.NewExecutor()
	tree.MaxSteps = engineMaxSteps
	treeOut := outcomeOf(tree.Run(m, "main"))

	unfused := dialects.NewExecutor()
	unfused.MaxSteps = engineMaxSteps
	uprog := interp.CompileWith(dialects.ExecutorRegistry(), m, interp.CompileOptions{DisableFusion: true})
	unfusedOut := outcomeOf(unfused.RunProgram(uprog, "main"))

	fused := dialects.NewExecutor()
	fused.MaxSteps = engineMaxSteps
	fprog := interp.Compile(dialects.ExecutorRegistry(), m)
	fusedOut := outcomeOf(fused.RunProgram(fprog, "main"))

	if d := treeOut.diff(unfusedOut); d != "" {
		return &Failure{Detail: fmt.Sprintf("engines disagree at %s (fusion off): %s", stage, d)}
	}
	if d := treeOut.diff(fusedOut); d != "" {
		return &Failure{Detail: fmt.Sprintf("engines disagree at %s (fusion on): %s", stage, d)}
	}
	return nil
}
