package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"ratte/internal/dialects"
	"ratte/internal/interp"
	"ratte/internal/ir"
)

// straightLineSrc builds a main of n chained arith ops and one print —
// the module shape the payoff tiering leaves to the tree walker.
func straightLineSrc(n int) string {
	var b strings.Builder
	b.WriteString(`"builtin.module"() ({
  "func.func"() ({
    %v0 = "arith.constant"() {value = 3 : i64} : () -> (i64)
    %v1 = "arith.constant"() {value = 5 : i64} : () -> (i64)
`)
	for i := 2; i < n+2; i++ {
		op := [...]string{"arith.addi", "arith.muli", "arith.xori", "arith.subi"}[i%4]
		fmt.Fprintf(&b, "    %%v%d = %q(%%v%d, %%v%d) : (i64, i64) -> (i64)\n", i, op, i-1, i-2)
	}
	fmt.Fprintf(&b, `    "vector.print"(%%v%d) : (i64) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`, n+1)
	return b.String()
}

// scfLoopSrc builds a main whose work is an iters-trip scf.for
// accumulating over the induction variable — structured control flow,
// the compiled engine's home turf.
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

// cfLoopSrc builds the same accumulation as an explicit CFG — the shape
// scf-to-cf lowering produces, where every iteration is a block-arg
// branch rather than a region re-entry.
func cfLoopSrc(iters int) string {
	return fmt.Sprintf(`"builtin.module"() ({
  "func.func"() ({
  ^bb0:
    %%zero = "arith.constant"() {value = 0 : i64} : () -> (i64)
    %%one = "arith.constant"() {value = 1 : i64} : () -> (i64)
    %%three = "arith.constant"() {value = 3 : i64} : () -> (i64)
    %%n = "arith.constant"() {value = %d : i64} : () -> (i64)
    "cf.br"()[^head(%%zero : i64, %%zero : i64)] : () -> ()
  ^head(%%acc: i64, %%i: i64):
    %%c = "arith.cmpi"(%%i, %%n) {predicate = 2 : i64} : (i64, i64) -> (i1)
    "cf.cond_br"(%%c)[^body(%%acc : i64, %%i : i64), ^exit(%%acc : i64)] : (i1) -> ()
  ^body(%%a: i64, %%j: i64):
    %%t = "arith.muli"(%%j, %%three) : (i64, i64) -> (i64)
    %%a2 = "arith.addi"(%%a, %%t) : (i64, i64) -> (i64)
    %%j2 = "arith.addi"(%%j, %%one) : (i64, i64) -> (i64)
    "cf.br"()[^head(%%a2 : i64, %%j2 : i64)] : () -> ()
  ^exit(%%r: i64):
    "vector.print"(%%r) : (i64) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`, iters)
}

func mustParseB(b *testing.B, src string) *ir.Module {
	b.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	return m
}

func benchTree(b *testing.B, m *ir.Module) {
	in := dialects.NewTreeWalkingExecutor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Run(m, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCompiled(b *testing.B, m *ir.Module) {
	in := dialects.NewTreeWalkingExecutor()
	prog := interp.Compile(dialects.ExecutorRegistry(), m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.RunProgram(prog, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpStraightLine: per-run cost on a 60-op straight line.
// The compiled numbers here exclude Compile itself (amortized via the
// program cache in real use); the tiering runs these modules on the
// tree walker precisely because one uncached compile costs more than
// one walk.
func BenchmarkInterpStraightLine(b *testing.B) {
	m := mustParseB(b, straightLineSrc(60))
	b.Run("tree", func(b *testing.B) { benchTree(b, m) })
	b.Run("compiled", func(b *testing.B) { benchCompiled(b, m) })
}

// BenchmarkInterpSCFLoop: a 2000-trip structured loop, the workload the
// compiled engine exists for — every iteration re-enters the body
// region, which the tree walker pays for in map churn and the engine
// in frame-slot clears.
func BenchmarkInterpSCFLoop(b *testing.B) {
	m := mustParseB(b, scfLoopSrc(2000))
	b.Run("tree", func(b *testing.B) { benchTree(b, m) })
	b.Run("compiled", func(b *testing.B) { benchCompiled(b, m) })
}

// BenchmarkInterpCFLoop: the same 2000 iterations as an explicit CFG
// with block-argument branches (the post-lowering shape).
func BenchmarkInterpCFLoop(b *testing.B) {
	m := mustParseB(b, cfLoopSrc(2000))
	b.Run("tree", func(b *testing.B) { benchTree(b, m) })
	b.Run("compiled", func(b *testing.B) { benchCompiled(b, m) })
}

// BenchmarkInterpCompile: the one-time cost of Compile itself, over the
// loop module (arena-allocated — a handful of allocations per module).
func BenchmarkInterpCompile(b *testing.B) {
	m := mustParseB(b, scfLoopSrc(2000))
	reg := dialects.ExecutorRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if interp.Compile(reg, m) == nil {
			b.Fatal("nil program")
		}
	}
}
