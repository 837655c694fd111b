package interp_test

import (
	"reflect"
	"testing"

	"ratte/internal/coverage"
	"ratte/internal/dialects"
	"ratte/internal/interp"
)

// runWithCoverage executes src on a fresh executor, optionally compiled
// and optionally with a coverage map attached, returning the output and
// the coverage summary.
func runWithCoverage(t *testing.T, src string, compiled, withCov bool) (string, map[string]uint64) {
	t.Helper()
	m := mustParse(t, src)
	ex := dialects.NewExecutor()
	var cov *coverage.Map
	if withCov {
		cov = coverage.NewMap()
		ex.Coverage = cov
	}
	var res *interp.Result
	var err error
	if compiled {
		res, err = ex.RunProgram(interp.Compile(dialects.ExecutorRegistry(), m), "main")
	} else {
		res, err = ex.Run(m, "main")
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Output, cov.Summary()
}

// TestCoverageCountsExecutedOps checks that the executed-op family
// counts every dispatched operation under interp/op/<name>, with
// engine-independent counts: the tree walker and the compiled engine
// (whose scf.for here runs natively fused) report identical summaries.
func TestCoverageCountsExecutedOps(t *testing.T) {
	src := scfLoopSrc(10)
	outTree, covTree := runWithCoverage(t, src, false, true)
	outComp, covComp := runWithCoverage(t, src, true, true)

	if outTree != outComp {
		t.Fatalf("engine outputs differ: tree=%q compiled=%q", outTree, outComp)
	}
	if covTree == nil || len(covTree) == 0 {
		t.Fatal("tree-walk coverage summary is empty")
	}
	if !reflect.DeepEqual(covTree, covComp) {
		t.Fatalf("engine coverage disagrees:\ntree:     %v\ncompiled: %v", covTree, covComp)
	}
	// The 10-trip loop body dispatches its adds once per iteration; the
	// loop op itself dispatches once.
	if got := covTree["interp/op/arith.addi"]; got != 10 {
		t.Errorf("interp/op/arith.addi = %d, want 10", got)
	}
	if got := covTree["interp/op/scf.for"]; got != 1 {
		t.Errorf("interp/op/scf.for = %d, want 1", got)
	}
}

// TestCoverageDoesNotPerturbResults checks observation-only: the same
// program yields byte-identical output with coverage on and off, on
// both engines.
func TestCoverageDoesNotPerturbResults(t *testing.T) {
	for _, src := range []string{straightLineSrc(8), scfLoopSrc(7)} {
		for _, compiled := range []bool{false, true} {
			outOff, _ := runWithCoverage(t, src, compiled, false)
			outOn, cov := runWithCoverage(t, src, compiled, true)
			if outOff != outOn {
				t.Errorf("compiled=%v: coverage changed output: off=%q on=%q", compiled, outOff, outOn)
			}
			if len(cov) == 0 {
				t.Errorf("compiled=%v: coverage-on run reported no sites", compiled)
			}
		}
	}
}
