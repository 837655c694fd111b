// Benchmarks regenerating every table and figure of the paper's
// evaluation (the experiment index of DESIGN.md §4). Each benchmark
// reports the paper-comparable quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation's rows. EXPERIMENTS.md records one run's
// paper-vs-measured comparison.
package ratte_test

import (
	"testing"
	"time"

	"ratte"
	"ratte/internal/bugs"
	"ratte/internal/difftest"
	"ratte/internal/gen"
	"ratte/internal/mlirsmith"
)

// BenchmarkTable2_Generators — paper Table 2: the three semantics-guided
// generator presets. Each iteration generates one program and verifies
// it compiles and is UB-free (both must be 100%; the benchmark fails
// otherwise). The ns/op figure is the per-program generation+check cost.
func BenchmarkTable2_Generators(b *testing.B) {
	for _, preset := range gen.Presets() {
		preset := preset
		b.Run(preset, func(b *testing.B) {
			compiled, ubFree := 0, 0
			for i := 0; i < b.N; i++ {
				p, err := gen.Generate(gen.Config{Preset: preset, Size: 30, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				cl := difftest.Classify(p.Module, preset)
				if cl.Compiled {
					compiled++
				}
				if cl.UBFree {
					ubFree++
				}
			}
			if compiled != b.N || ubFree != b.N {
				b.Fatalf("Ratte %s: %d/%d compiled, %d/%d UB-free — paper requires 100%%",
					preset, compiled, b.N, ubFree, b.N)
			}
			b.ReportMetric(100, "compiled%")
			b.ReportMetric(100, "ubfree%")
		})
	}
}

// BenchmarkTable3_BugFinding — paper Table 3: one campaign per injected
// bug, stopping at first detection. Reports the number of programs
// needed to detect each bug (the campaign cost the paper pays with
// overnight runs on a laptop).
func BenchmarkTable3_BugFinding(b *testing.B) {
	for _, info := range bugs.Table() {
		info := info
		b.Run(info.Pass+"_"+info.DetectedWith, func(b *testing.B) {
			totalPrograms := 0
			detected := 0
			for i := 0; i < b.N; i++ {
				res, err := difftest.RunCampaign(difftest.CampaignConfig{
					Preset:      "ariths",
					Programs:    2000,
					Size:        30,
					Seed:        int64(i+1) * 10_000 * int64(info.ID),
					Bugs:        bugs.Only(info.ID),
					StopAtFirst: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				totalPrograms += res.Programs
				if len(res.Detections) > 0 {
					detected++
				}
			}
			if detected != b.N {
				b.Fatalf("bug %d detected in only %d/%d campaigns", info.ID, detected, b.N)
			}
			b.ReportMetric(float64(totalPrograms)/float64(b.N), "programs/detect")
		})
	}
}

// BenchmarkTable4_MLIRSmith — paper Table 4: compileability and
// UB-freeness of the MLIRSmith baseline per preset, reported as
// percentage metrics (paper: ariths 100%/1.1%, linalg 6.9%/N/A,
// tensor 99.4%/0%, unmod 7.8%/N/A).
func BenchmarkTable4_MLIRSmith(b *testing.B) {
	for _, preset := range mlirsmith.Presets() {
		preset := preset
		b.Run(preset, func(b *testing.B) {
			compiled, ubFree := 0, 0
			for i := 0; i < b.N; i++ {
				m, err := mlirsmith.Generate(mlirsmith.Config{Preset: preset, Size: 20, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				cl := difftest.Classify(m, preset)
				if cl.Compiled {
					compiled++
				}
				if cl.UBFree {
					ubFree++
				}
			}
			b.ReportMetric(100*float64(compiled)/float64(b.N), "compiled%")
			b.ReportMetric(100*float64(ubFree)/float64(b.N), "ubfree%")
		})
	}
}

// BenchmarkThroughput_Ratte / BenchmarkThroughput_MLIRSmith — §4.2's
// generation-time comparison (paper: 1000 programs in 191/193/196s for
// Ratte vs 67/59/82s for MLIRSmith; the *shape* is Ratte ≈2.5–3×
// slower, because it interprets during generation).
func BenchmarkThroughput_Ratte(b *testing.B) {
	for _, preset := range gen.Presets() {
		preset := preset
		b.Run(preset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(gen.Config{Preset: preset, Size: 50, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkThroughput_MLIRSmith(b *testing.B) {
	for _, preset := range []string{"ariths", "linalggeneric", "tensor"} {
		preset := preset
		b.Run(preset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mlirsmith.Generate(mlirsmith.Config{Preset: preset, Size: 50, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

const benchFigure2 = `"builtin.module"() ({
  "func.func"() ({
    %n1 = "arith.constant"() {value = -1 : i1} : () -> (i1)
    %0 = "func.call"() {callee = @one} : () -> (i1)
    %low, %high = "arith.mulsi_extended"(%0, %n1) : (i1, i1) -> (i1, i1)
    "vector.print"(%low) : (i1) -> ()
    "vector.print"(%high) : (i1) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
  "func.func"() ({
    %n1 = "arith.constant"() {value = -1 : i1} : () -> (i1)
    "func.return"(%n1) : (i1) -> ()
  }) {sym_name = "one", function_type = () -> (i1)} : () -> ()
}) : () -> ()`

// BenchmarkFigure2_DifferentialTest — paper Figure 2: the i1
// mulsi_extended miscompilation, detected by DT-R on every iteration.
func BenchmarkFigure2_DifferentialTest(b *testing.B) {
	m, err := ratte.ParseModule(benchFigure2)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := ratte.Interpret(m, "main")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := ratte.Test(m, ref.Output, "ariths", ratte.Bugs(bugs.MulsiExtendedI1Fold))
		if rep.Detected() != ratte.OracleDTR {
			b.Fatalf("Figure 2 bug not detected by DT-R: %v", rep.Detected())
		}
	}
}

const benchFigure12 = `"builtin.module"() ({
  "func.func"() ({
    %cm, %cn1 = "func.call"() {callee = @func1} : () -> (i64, i64)
    %1 = "arith.floordivsi"(%cm, %cn1) : (i64, i64) -> (i64)
    "vector.print"(%1) : (i64) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
  "func.func"() ({
    %cm = "arith.constant"() {value = -9223372036854775807 : i64} : () -> (i64)
    %cn1 = "arith.constant"() {value = -1 : i64} : () -> (i64)
    "func.return"(%cm, %cn1) : (i64, i64) -> ()
  }) {sym_name = "func1", function_type = () -> (i64, i64)} : () -> ()
}) : () -> ()`

// BenchmarkFigure12_DifferentialTest — paper Figure 12: the floordivsi
// lowering bug, observed as a crash (NC) on every iteration.
func BenchmarkFigure12_DifferentialTest(b *testing.B) {
	m, err := ratte.ParseModule(benchFigure12)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := ratte.Interpret(m, "main")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := ratte.Test(m, ref.Output, "ariths", ratte.Bugs(bugs.FloorDivSiExpand))
		if rep.Detected() != ratte.OracleNC {
			b.Fatalf("Figure 12 bug not detected by NC: %v", rep.Detected())
		}
	}
}

// BenchmarkReferenceInterpreter measures the §3.5 reference interpreter
// on a generated program (the per-program cost the generator pays to be
// UB-free).
func BenchmarkReferenceInterpreter(b *testing.B) {
	for _, preset := range gen.Presets() {
		preset := preset
		b.Run(preset, func(b *testing.B) {
			p, err := gen.Generate(gen.Config{Preset: preset, Size: 40, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ratte.Interpret(p.Module, "main"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_RejectionSampling quantifies the paper's §3 design
// argument: obtaining ONE differential-testing-usable program (compiles
// and UB-free) by rejection-sampling a grammar-level generator costs
// many attempts, whereas the incremental semantics-guided generator
// needs exactly one. Reported metric: attempts per usable program.
func BenchmarkAblation_RejectionSampling(b *testing.B) {
	b.Run("mlirsmith_reject", func(b *testing.B) {
		attempts := 0
		seed := int64(0)
		for i := 0; i < b.N; i++ {
			for {
				attempts++
				m, err := mlirsmith.Generate(mlirsmith.Config{Preset: "ariths", Size: 30, Seed: seed})
				seed++
				if err != nil {
					b.Fatal(err)
				}
				cl := difftest.Classify(m, "ariths")
				if cl.Compiled && cl.UBFree {
					break
				}
			}
		}
		b.ReportMetric(float64(attempts)/float64(b.N), "attempts/valid")
	})
	b.Run("ratte_incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := gen.Generate(gen.Config{Preset: "ariths", Size: 30, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			cl := difftest.Classify(p.Module, "ariths")
			if !cl.Compiled || !cl.UBFree {
				b.Fatal("semantics-guided generation produced an unusable program")
			}
		}
		b.ReportMetric(1, "attempts/valid")
	})
}

// BenchmarkCampaignSerial measures the end-to-end campaign engine:
// generate one program, compile it under every build configuration
// (sharing the common lowering prefix), execute, and compare against
// the reference output. ns/op is the per-program campaign cost;
// programs/sec is the fuzzing throughput a single worker sustains.
func BenchmarkCampaignSerial(b *testing.B) {
	start := time.Now()
	res, err := difftest.RunCampaign(difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: b.N,
		Size:     30,
		Seed:     1,
		Bugs:     bugs.None(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.Programs != b.N {
		b.Fatalf("campaign tested %d programs, want %d", res.Programs, b.N)
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "programs/sec")
}

// BenchmarkCampaignParallel measures the campaign engine's worker pool
// at 8 workers over the same workload as BenchmarkCampaignSerial. On
// multi-core hosts programs/sec scales with cores.
func BenchmarkCampaignParallel(b *testing.B) {
	start := time.Now()
	res, err := difftest.RunCampaignParallel(difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: b.N,
		Size:     30,
		Seed:     1,
		Bugs:     bugs.None(),
	}, 8)
	if err != nil {
		b.Fatal(err)
	}
	if res.Programs != b.N {
		b.Fatalf("campaign tested %d programs, want %d", res.Programs, b.N)
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "programs/sec")
}

// BenchmarkCompilePipeline measures full preset pipelines (the cost of
// one differential-testing compilation).
func BenchmarkCompilePipeline(b *testing.B) {
	for _, preset := range gen.Presets() {
		preset := preset
		b.Run(preset, func(b *testing.B) {
			p, err := gen.Generate(gen.Config{Preset: preset, Size: 40, Seed: 12})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ratte.Compile(p.Module, preset, 1, ratte.NoBugs()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
