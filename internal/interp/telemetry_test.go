package interp_test

import (
	"testing"

	"ratte/internal/dialects"
	"ratte/internal/interp"
	"ratte/internal/telemetry"
)

// TestExecutorCompileAccounting pins the data behind the benchmark's
// interp.compile.share: an executor Run tree-walks, even on loop
// modules, so it accounts no compile in ExecutorProgramCache. The
// engine-agreement oracle pins the walk against compiled execution;
// difftest's telemetry test pins that a batched family's compiles are
// accounted.
func TestExecutorCompileAccounting(t *testing.T) {
	cache := dialects.ExecutorProgramCache()
	for name, src := range map[string]string{"scf_loop": scfLoopSrc(10), "cf_loop": cfLoopSrc(10)} {
		m := mustParse(t, src)
		before := cache.StatsDetail()
		if _, err := dialects.NewExecutor().Run(m, "main"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := cache.StatsDetail(); st != before {
			t.Errorf("%s: executor run changed the accounting: %+v -> %+v", name, before, st)
		}
	}
}

// TestRegisterProgramCacheMetrics checks the compile accounting
// surfaces as labelled gauges whose exported values match StatsDetail.
func TestRegisterProgramCacheMetrics(t *testing.T) {
	m := mustParse(t, straightLineSrc(8))
	dreg := dialects.ExecutorRegistry()
	c := new(interp.ProgramCache)
	for i := 0; i < 4; i++ {
		c.Get(dreg, m)
	}

	reg := telemetry.NewRegistry()
	interp.RegisterProgramCacheMetrics(reg, "test", c)
	snap := reg.Snapshot()
	if got := snap[`ratte_interp_program_cache_misses{cache="test"}`]; got != int64(4) {
		t.Errorf("misses = %v, want 4", got)
	}
	if ct := snap[`ratte_interp_program_cache_compile_ns{cache="test"}`]; ct != c.StatsDetail().CompileTime.Nanoseconds() || ct.(int64) <= 0 {
		t.Errorf("compile_ns = %v, want StatsDetail's positive CompileTime", ct)
	}
	if len(snap) != 2 {
		t.Errorf("registered %d series, want misses and compile_ns only: %v", len(snap), snap)
	}
	// Nil registry and nil cache registrations are no-ops.
	interp.RegisterProgramCacheMetrics(nil, "x", c)
	interp.RegisterProgramCacheMetrics(reg, "y", nil)
	if _, ok := reg.Snapshot()[`ratte_interp_program_cache_misses{cache="y"}`]; ok {
		t.Error("nil cache registered gauges")
	}
}

// TestInterpreterMetricsCount checks the per-run counters: a tree-walk
// run reports Runs and Steps, a compiled run additionally reports
// CompiledRuns, and values reflect actual work.
func TestInterpreterMetricsCount(t *testing.T) {
	m := mustParse(t, straightLineSrc(8))
	reg := telemetry.NewRegistry()
	met := interp.NewMetrics(reg)

	tw := dialects.NewExecutor()
	tw.Metrics = met
	if _, err := tw.Run(m, "main"); err != nil {
		t.Fatal(err)
	}
	if met.Runs.Value() != 1 || met.CompiledRuns.Value() != 0 {
		t.Fatalf("after tree run: runs=%d compiled=%d, want 1/0",
			met.Runs.Value(), met.CompiledRuns.Value())
	}
	steps := met.Steps.Value()
	if steps == 0 {
		t.Fatal("tree run reported 0 steps")
	}

	ce := dialects.NewExecutor()
	ce.Metrics = met
	prog := interp.Compile(dialects.ExecutorRegistry(), m)
	if _, err := ce.RunProgram(prog, "main"); err != nil {
		t.Fatal(err)
	}
	if met.Runs.Value() != 2 || met.CompiledRuns.Value() != 1 {
		t.Fatalf("after compiled run: runs=%d compiled=%d, want 2/1",
			met.Runs.Value(), met.CompiledRuns.Value())
	}
	if met.Steps.Value() <= steps {
		t.Fatal("compiled run reported no steps")
	}
}

// TestDisabledMetricsAddNoAllocs is the alloc guard: an interpreter
// with telemetry disabled (nil Metrics) allocates exactly as much per
// compiled run as one with telemetry enabled — instrument updates are
// atomic adds, never allocations — so leaving instrumentation in the
// hot path is free.
func TestDisabledMetricsAddNoAllocs(t *testing.T) {
	m := mustParse(t, straightLineSrc(8))
	prog := interp.Compile(dialects.ExecutorRegistry(), m)

	off := dialects.NewExecutor()
	on := dialects.NewExecutor()
	on.Metrics = interp.NewMetrics(telemetry.NewRegistry())

	run := func(in *interp.Interpreter) func() {
		return func() {
			if _, err := in.RunProgram(prog, "main"); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocsOff := testing.AllocsPerRun(50, run(off))
	allocsOn := testing.AllocsPerRun(50, run(on))
	if allocsOn != allocsOff {
		t.Errorf("enabled metrics changed allocations: off=%.1f on=%.1f", allocsOff, allocsOn)
	}

	// The nil-instrument API itself is alloc-free.
	var nm *interp.Metrics
	var nc *telemetry.Counter
	if a := testing.AllocsPerRun(100, func() {
		nc.Inc()
		nc.Add(3)
		_ = nm
	}); a != 0 {
		t.Errorf("nil instrument calls allocated %.1f per run", a)
	}
}
