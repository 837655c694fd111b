package difftest

import (
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/dialects"
	"ratte/internal/gen"
	"ratte/internal/ir"
)

// BenchmarkExecutorRunOnce measures what the campaign's executor does
// with one lowered module: tree-walk it once (Interpreter.Run). For
// each preset the modules are the lowered programs of seeds 1-100
// (size 30, the benchmark's program size) under every BuildConfigs
// entry; one op is one module.
func BenchmarkExecutorRunOnce(b *testing.B) {
	for _, preset := range gen.AllPresets() {
		b.Run(preset, func(b *testing.B) {
			mods := loweredModules(b, preset, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dialects.NewExecutor().Run(mods[i%len(mods)], "main"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// loweredModules generates the preset's programs for seeds 1..seeds and
// returns every module they lower to under BuildConfigs.
func loweredModules(b *testing.B, preset string, seeds int64) []*ir.Module {
	var mods []*ir.Module
	for seed := int64(1); seed <= seeds; seed++ {
		p, err := gen.Generate(gen.Config{Preset: preset, Size: 30, Seed: seed})
		if err != nil {
			continue
		}
		for _, out := range compiler.CompileConfigs(p.Module, preset, bugs.None(), BuildConfigs) {
			if out.Err == nil {
				mods = append(mods, out.Module)
			}
		}
	}
	if len(mods) == 0 {
		b.Fatalf("%s: no lowered modules", preset)
	}
	return mods
}
