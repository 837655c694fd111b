// Execution telemetry: optional counters an Interpreter feeds as it
// runs. The instrumentation points are per-run, never per-op — a run
// increments a run counter and adds the steps it consumed, both single
// atomic adds — so an enabled registry costs the same allocations as a
// disabled one on the interpret hot path (the alloc guard in
// telemetry_test.go pins both at equal).
package interp

import (
	"ratte/internal/telemetry"
)

// Metrics is the set of execution counters an Interpreter reports
// into. Any field may be nil (nil instruments are no-ops), and a nil
// *Metrics disables reporting entirely — the interpreter then pays one
// nil check per Run.
type Metrics struct {
	// Runs counts completed evaluations (tree-walked or compiled).
	Runs *telemetry.Counter
	// CompiledRuns counts the subset executed by the compiled engine.
	CompiledRuns *telemetry.Counter
	// Steps accumulates operations evaluated across all runs.
	Steps *telemetry.Counter
	// FusedSteps accumulates the subset of Steps executed inside fused
	// superinstruction runs (see fuse.go) — the fusion rate observable.
	FusedSteps *telemetry.Counter
}

// NewMetrics builds interpreter metrics registered under the standard
// series names. A nil registry yields nil (reporting disabled).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Runs:         reg.Counter("ratte_interp_runs_total", "completed module evaluations"),
		CompiledRuns: reg.Counter("ratte_interp_compiled_runs_total", "evaluations executed by the compiled engine"),
		Steps:        reg.Counter("ratte_interp_steps_total", "operations evaluated"),
		FusedSteps:   reg.Counter("ratte_interp_fused_steps_total", "operations evaluated inside fused superinstructions"),
	}
}

// noteRun records one completed evaluation that consumed the given
// number of steps, fusedSteps of which ran inside fused runs.
func (m *Metrics) noteRun(steps, fusedSteps int, compiled bool) {
	if m == nil {
		return
	}
	m.Runs.Inc()
	if compiled {
		m.CompiledRuns.Inc()
	}
	if steps > 0 {
		m.Steps.Add(uint64(steps))
	}
	if fusedSteps > 0 {
		m.FusedSteps.Add(uint64(fusedSteps))
	}
}

// RegisterProgramCacheMetrics exposes a program cache's compile
// accounting as callback gauges under the given cache label
// ("executor"). Zero hot-path cost: the counters are read at export
// time. Nil registry or cache is a no-op.
func RegisterProgramCacheMetrics(reg *telemetry.Registry, label string, c *ProgramCache) {
	if reg == nil || c == nil {
		return
	}
	l := `cache="` + label + `"`
	reg.GaugeFuncWith("ratte_interp_program_cache_misses", l, "compiled programs built",
		func() int64 { return int64(c.StatsDetail().Misses) })
	reg.GaugeFuncWith("ratte_interp_program_cache_compile_ns", l, "nanoseconds spent compiling programs",
		func() int64 { return c.StatsDetail().CompileTime.Nanoseconds() })
}
