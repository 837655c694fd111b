package interp_test

import (
	"strings"
	"testing"

	"ratte/internal/dialects"
	"ratte/internal/interp"
	"ratte/internal/ir"
)

// runBoth executes one module under the tree walker (Run) and under
// the compiled engine (interp.Compile + RunProgram) with identical
// limits, returning both outcomes.
func runBoth(t *testing.T, src string, maxSteps, maxDepth int) (tree, compiled *interp.Result, treeErr, compErr error) {
	t.Helper()
	m := mustParse(t, src)

	tw := dialects.NewExecutor()
	tw.MaxSteps = maxSteps
	tw.MaxCallDepth = maxDepth
	tree, treeErr = tw.Run(m, "main")

	ce := dialects.NewExecutor()
	ce.MaxSteps = maxSteps
	ce.MaxCallDepth = maxDepth
	prog := interp.Compile(dialects.ExecutorRegistry(), m)
	compiled, compErr = ce.RunProgram(prog, "main")
	return tree, compiled, treeErr, compErr
}

// TestCompiledErrorFidelity pins the compiled engine to the tree
// walker's exact failure behavior: same error text, same UB/trap
// classification, for every runtime fault the engines can hit. The
// difftest harness compares engine results textually, so "almost the
// same error" would read as a miscompilation.
func TestCompiledErrorFidelity(t *testing.T) {
	wrap := func(body string) string {
		return `"builtin.module"() ({
  "func.func"() ({
` + body + `
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`
	}
	cases := []struct {
		name     string
		src      string
		maxSteps int
		maxDepth int
		wantSub  string // substring the (identical) error must contain
		wantTrap bool
	}{
		{
			name: "step_limit",
			src: `"builtin.module"() ({
  "func.func"() ({
  ^bb0:
    "cf.br"()[^loop] : () -> ()
  ^loop:
    "cf.br"()[^loop] : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`,
			maxSteps: 100,
			wantSub:  "step limit exceeded",
			wantTrap: true,
		},
		{
			name: "call_depth",
			src: `"builtin.module"() ({
  "func.func"() ({
    "func.call"() {callee = @main} : () -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`,
			maxDepth: 20,
			wantSub:  "call depth exceeded",
			wantTrap: true,
		},
		{
			name: "use_before_def",
			src: wrap(`    %s = "arith.addi"(%later, %later) : (i64, i64) -> (i64)
    %later = "arith.constant"() {value = 1 : i64} : () -> (i64)`),
			wantSub: "use of undefined value %later",
		},
		{
			name:    "unregistered_op",
			src:     wrap(`    "mystery.op"() : () -> ()`),
			wantSub: "no semantics registered for mystery.op",
		},
		{
			name: "unknown_branch_target",
			src: `"builtin.module"() ({
  "func.func"() ({
  ^bb0:
    "cf.br"()[^nowhere] : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`,
			wantSub: "branch to unknown block ^nowhere",
		},
		{
			name: "block_arg_type_mismatch",
			src: `"builtin.module"() ({
  "func.func"() ({
  ^bb0:
    %a = "arith.constant"() {value = 7 : i64} : () -> (i64)
    "cf.br"()[^merge(%a : i32)] : () -> ()
  ^merge(%x: i32):
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`,
			wantSub: "has runtime type i64 but is used at type i32",
		},
		{
			name:    "call_unknown_function",
			src:     wrap(`    "func.call"() {callee = @ghost} : () -> ()`),
			wantSub: "call to unknown function @ghost",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, _, treeErr, compErr := runBoth(t, tc.src, tc.maxSteps, tc.maxDepth)
			if treeErr == nil {
				t.Fatal("tree walker did not fail")
			}
			if compErr == nil {
				t.Fatalf("compiled engine did not fail (tree: %v)", treeErr)
			}
			if treeErr.Error() != compErr.Error() {
				t.Errorf("error text diverges:\n  tree:     %v\n  compiled: %v", treeErr, compErr)
			}
			if !strings.Contains(treeErr.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", treeErr, tc.wantSub)
			}
			if got := interp.IsTrap(compErr); got != tc.wantTrap {
				t.Errorf("IsTrap(compiled) = %v, want %v", got, tc.wantTrap)
			}
			if interp.IsTrap(treeErr) != interp.IsTrap(compErr) || interp.IsUB(treeErr) != interp.IsUB(compErr) {
				t.Error("UB/trap classification diverges between engines")
			}
		})
	}
}

// TestCompiledResultFidelity pins the success path: byte-identical
// Output and identical Returned values across engines, over straight
// lines, structured loops and lowered CFGs alike.
func TestCompiledResultFidelity(t *testing.T) {
	cases := []struct{ name, src string }{
		{"straight_line", straightLineSrc(24)},
		{"scf_loop", scfLoopSrc(100)},
		{"lowered_cf", cfLoopSrc(100)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tree, compiled, treeErr, compErr := runBoth(t, tc.src, 0, 0)
			if treeErr != nil || compErr != nil {
				t.Fatalf("tree err %v, compiled err %v", treeErr, compErr)
			}
			if tree.Output != compiled.Output {
				t.Errorf("output diverges:\n  tree:     %q\n  compiled: %q", tree.Output, compiled.Output)
			}
			if len(tree.Returned) != len(compiled.Returned) {
				t.Errorf("returned %d values vs %d", len(tree.Returned), len(compiled.Returned))
			}
		})
	}
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
