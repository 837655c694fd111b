package ir_test

import (
	"fmt"
	"testing"

	"ratte/internal/ir"
)

func mustParse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// scfLoopSrc builds a main whose work is an iters-trip scf.for
// accumulating over the induction variable.
func scfLoopSrc(iters int) string {
	return fmt.Sprintf(`"builtin.module"() ({
  "func.func"() ({
    %%lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %%ub = "arith.constant"() {value = %d : index} : () -> (index)
    %%st = "arith.constant"() {value = 1 : index} : () -> (index)
    %%init = "arith.constant"() {value = 0 : i64} : () -> (i64)
    %%three = "arith.constant"() {value = 3 : i64} : () -> (i64)
    %%r = "scf.for"(%%lb, %%ub, %%st, %%init) ({
    ^bb0(%%iv: index, %%acc: i64):
      %%i = "arith.index_cast"(%%iv) : (index) -> (i64)
      %%t = "arith.muli"(%%i, %%three) : (i64, i64) -> (i64)
      %%a = "arith.addi"(%%acc, %%t) : (i64, i64) -> (i64)
      "scf.yield"(%%a) : (i64) -> ()
    }) : (index, index, index, i64) -> (i64)
    "vector.print"(%%r) : (i64) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`, iters)
}

// TestFingerprintStability: the structural hash is a function of the
// module's printed identity — reparsing the printed form fingerprints
// the same, and a one-constant change fingerprints differently.
func TestFingerprintStability(t *testing.T) {
	m := mustParse(t, scfLoopSrc(10))
	fp := ir.Fingerprint(m)
	m2, err := ir.Parse(ir.Print(m))
	if err != nil {
		t.Fatal(err)
	}
	if fp2 := ir.Fingerprint(m2); fp2 != fp {
		t.Errorf("fingerprint not stable across print/parse: %x vs %x", fp, fp2)
	}
	m3 := mustParse(t, scfLoopSrc(11))
	if ir.Fingerprint(m3) == fp {
		t.Error("distinct modules share a fingerprint")
	}
}
