package interp_test

import (
	"strings"
	"testing"

	"ratte/internal/dialects"
	"ratte/internal/interp"
	"ratte/internal/ir"
)

// TestStepLimitGuardsNonTermination: the executor bounds evaluation
// steps, so a hand-written infinite cf loop terminates with a trap
// rather than hanging the harness.
func TestStepLimitGuardsNonTermination(t *testing.T) {
	src := `"builtin.module"() ({
  "llvm.func"() ({
  ^bb0:
    "cf.br"()[^bb1] : () -> ()
  ^bb1:
    "cf.br"()[^bb1] : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := dialects.NewExecutor()
	in.MaxSteps = 10_000
	_, err = in.Run(m, "main")
	if err == nil || !interp.IsTrap(err) {
		t.Fatalf("infinite loop should hit the step limit, got %v", err)
	}
	if !strings.Contains(err.Error(), "step limit") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestTypedAccessorErrors: the context's typed getters reject wrong
// shapes with useful errors instead of panicking.
func TestTypedAccessorErrors(t *testing.T) {
	src := `"builtin.module"() ({
  "func.func"() ({
    %t = "arith.constant"() {value = dense<[1]> : tensor<1xi64>} : () -> (tensor<1xi64>)
    %q = "arith.addi"(%t, %t) : (tensor<1xi64>, tensor<1xi64>) -> (tensor<1xi64>)
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// The verifier would reject this (addi over tensors); run the
	// interpreter directly to exercise the dynamic accessor guard.
	_, err = dialects.NewReferenceInterpreter().Run(m, "main")
	if err == nil || !strings.Contains(err.Error(), "not a scalar integer") {
		t.Errorf("want scalar-accessor error, got %v", err)
	}
}

// TestUseAtWrongDeclaredType: dynamic type agreement between a use's
// claimed type and the binding's runtime type is enforced.
func TestUseAtWrongDeclaredType(t *testing.T) {
	src := `"builtin.module"() ({
  "func.func"() ({
    %a = "arith.constant"() {value = 1 : i64} : () -> (i64)
    "vector.print"(%a) : (i32) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dialects.NewReferenceInterpreter().Run(m, "main")
	if err == nil || !strings.Contains(err.Error(), "used at type") {
		t.Errorf("want declared-type error, got %v", err)
	}
}

// TestMissingKernelIsStructuredError: interpreting an op with no
// registered semantics reports which op, not a panic.
func TestMissingKernelIsStructuredError(t *testing.T) {
	src := `"builtin.module"() ({
  "func.func"() ({
    "mystery.op"() : () -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dialects.NewReferenceInterpreter().Run(m, "main")
	if err == nil || !strings.Contains(err.Error(), "mystery.op") {
		t.Errorf("want missing-kernel error naming the op, got %v", err)
	}
}

// TestEvalErrorClassificationSurvivesWrapping: UB raised deep inside a
// nested region/call still classifies as UB at the top.
func TestEvalErrorClassificationSurvivesWrapping(t *testing.T) {
	src := `"builtin.module"() ({
  "func.func"() ({
    %r = "func.call"() {callee = @deep} : () -> (i64)
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
  "func.func"() ({
    %c = "arith.constant"() {value = 1 : i1} : () -> (i1)
    %r = "scf.if"(%c) ({
      %a = "arith.constant"() {value = 1 : i64} : () -> (i64)
      %z = "arith.constant"() {value = 0 : i64} : () -> (i64)
      %q = "arith.divsi"(%a, %z) : (i64, i64) -> (i64)
      "scf.yield"(%q) : (i64) -> ()
    }, {
      %b = "arith.constant"() {value = 2 : i64} : () -> (i64)
      "scf.yield"(%b) : (i64) -> ()
    }) : (i1) -> (i64)
    "func.return"(%r) : (i64) -> ()
  }) {sym_name = "deep", function_type = () -> (i64)} : () -> ()
}) : () -> ()`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dialects.NewReferenceInterpreter().Run(m, "main")
	if err == nil || !interp.IsUB(err) {
		t.Errorf("nested UB should classify as UB, got %v", err)
	}
}

// TestRuntimeFaultErrors pins the walker's failure behaviour for every
// runtime fault class: the error text and the UB/trap classification.
// The difftest harness compares run errors textually, so a changed
// message reads as a miscompilation.
func TestRuntimeFaultErrors(t *testing.T) {
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
		wantSub  string // substring the error must contain
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
			in := dialects.NewExecutor()
			in.MaxSteps = tc.maxSteps
			in.MaxCallDepth = tc.maxDepth
			_, err := in.Run(mustParse(t, tc.src), "main")
			if err == nil {
				t.Fatal("run did not fail")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
			if got := interp.IsTrap(err); got != tc.wantTrap {
				t.Errorf("IsTrap = %v, want %v", got, tc.wantTrap)
			}
		})
	}
}
