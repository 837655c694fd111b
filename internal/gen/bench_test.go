package gen_test

import (
	"testing"

	"ratte/internal/gen"
)

// BenchmarkGenerate measures one size-30 program per iteration, cycling
// through seeds so the figure averages over program shapes. Operand
// selection (semantics.Store.Candidates) runs once per operand, so this
// is where a per-query cost that grows with the visible prefix shows.
//
//	go test -run '^$' -bench=Generate ./internal/gen
func BenchmarkGenerate(b *testing.B) {
	for _, preset := range []string{"ariths", "linalggeneric"} {
		b.Run(preset, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(gen.Config{Preset: preset, Size: 30, Seed: int64(i % 64)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
