package interp

import (
	"time"

	"ratte/internal/ir"
	"ratte/internal/rtval"
)

// The names below outlive the compiled execution engine they used to
// front. They tree-walk and account nothing. Only the benchmark's
// replay (bench/) calls them; ROADMAP item 1 deletes them with it.

// CompiledProgram holds a module for RunProgramArgs. Only bench/ uses
// it; ROADMAP item 1 deletes it.
type CompiledProgram struct{ m *ir.Module }

// Compile wraps m without compiling it. Only bench/ calls it; ROADMAP
// item 1 deletes it.
func Compile(_ *Registry, m *ir.Module) *CompiledProgram { return &CompiledProgram{m} }

// RunProgramArgs tree-walks p's module through RunArgs. Only bench/
// calls it; ROADMAP item 1 deletes it.
func (in *Interpreter) RunProgramArgs(p *CompiledProgram, entry string, args []rtval.Value) (*Result, error) {
	return in.RunArgs(p.m, entry, args)
}

// ProgramCache accounts compiles, of which there are none. Only bench/
// reads it; ROADMAP item 1 deletes it.
type ProgramCache struct{}

// CacheStats is a ProgramCache snapshot: always zero. Only bench/
// reads it; ROADMAP item 1 deletes it.
type CacheStats struct {
	Hits, Misses uint64
	CompileTime  time.Duration
}

// StatsDetail returns zeros. Only bench/ calls it; ROADMAP item 1
// deletes it.
func (*ProgramCache) StatsDetail() CacheStats { return CacheStats{} }
