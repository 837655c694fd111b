package compiler_test

import (
	"testing"

	"ratte/internal/compiler"
	"ratte/internal/gen"
	"ratte/internal/ir"
)

// benchConfigs are the campaign's four build configurations
// (difftest.BuildConfigs).
var benchConfigs = []compiler.Config{
	{Level: compiler.O0},
	{Level: compiler.O1},
	{Level: compiler.O2},
	{Level: compiler.O1, SkipArithExpand: true},
}

// benchSink keeps the compiles' results live.
var benchSink []compiler.ConfigResult

// benchModules generates the size-30 programs of seeds 1–100 of one
// preset: the compile benchmarks' inputs, built outside the timer.
func benchModules(b *testing.B, preset string) []*ir.Module {
	b.Helper()
	ms := make([]*ir.Module, 0, 100)
	for seed := int64(1); seed <= 100; seed++ {
		p, err := gen.Generate(gen.Config{Preset: preset, Size: 30, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		ms = append(ms, p.Module)
	}
	return ms
}

// BenchmarkCompileConfigs compiles one program per iteration under the
// four build configurations through the shared prefix tree, as the
// campaign's compile stage does (verification already done).
func BenchmarkCompileConfigs(b *testing.B) {
	for _, preset := range []string{"ariths", "linalggeneric"} {
		b.Run(preset, func(b *testing.B) {
			ms := benchModules(b, preset)
			opts := &compiler.Options{SkipVerify: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = compiler.CompileConfigsOpts(ms[i%len(ms)], preset, opts, benchConfigs)
			}
		})
	}
}

// BenchmarkCompilePlans compiles one ariths program per iteration under
// 16 sampled pass plans, the plans16 workload's compile stage.
func BenchmarkCompilePlans(b *testing.B) {
	ms := benchModules(b, "ariths")
	plans, err := compiler.SamplePlans("ariths", 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := &compiler.Options{SkipVerify: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = compiler.CompilePlansOpts(ms[i%len(ms)], opts, plans)
	}
}
