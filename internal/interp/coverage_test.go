package interp_test

import (
	"testing"

	"ratte/internal/coverage"
	"ratte/internal/dialects"
)

// runWithCoverage executes src on a fresh executor, optionally with a
// coverage map attached, returning the output and the coverage
// summary.
func runWithCoverage(t *testing.T, src string, withCov bool) (string, map[string]uint64) {
	t.Helper()
	m := mustParse(t, src)
	ex := dialects.NewExecutor()
	var cov *coverage.Map
	if withCov {
		cov = coverage.NewMap()
		ex.Coverage = cov
	}
	res, err := ex.Run(m, "main")
	if err != nil {
		t.Fatal(err)
	}
	return res.Output, cov.Summary()
}

// TestCoverageCountsExecutedOps checks that the executed-op family
// counts every dispatched operation under interp/op/<name>.
func TestCoverageCountsExecutedOps(t *testing.T) {
	_, cov := runWithCoverage(t, scfLoopSrc(10), true)
	if len(cov) == 0 {
		t.Fatal("coverage summary is empty")
	}
	// The 10-trip loop body dispatches its adds once per iteration; the
	// loop op itself dispatches once.
	if got := cov["interp/op/arith.addi"]; got != 10 {
		t.Errorf("interp/op/arith.addi = %d, want 10", got)
	}
	if got := cov["interp/op/scf.for"]; got != 1 {
		t.Errorf("interp/op/scf.for = %d, want 1", got)
	}
}

// TestCoverageDoesNotPerturbResults checks observation-only: the same
// program yields byte-identical output with coverage on and off.
func TestCoverageDoesNotPerturbResults(t *testing.T) {
	for _, src := range []string{straightLineSrc(8), scfLoopSrc(7)} {
		outOff, _ := runWithCoverage(t, src, false)
		outOn, cov := runWithCoverage(t, src, true)
		if outOff != outOn {
			t.Errorf("coverage changed output: off=%q on=%q", outOff, outOn)
		}
		if len(cov) == 0 {
			t.Error("coverage-on run reported no sites")
		}
	}
}
