package interp_test

import (
	"testing"

	"ratte/internal/dialects"
	"ratte/internal/interp"
	"ratte/internal/telemetry"
)

// TestInterpreterMetricsCount checks the per-run counters: a run
// reports Runs and Steps, and values reflect actual work.
func TestInterpreterMetricsCount(t *testing.T) {
	m := mustParse(t, straightLineSrc(8))
	reg := telemetry.NewRegistry()
	met := interp.NewMetrics(reg)

	tw := dialects.NewExecutor()
	tw.Metrics = met
	if _, err := tw.Run(m, "main"); err != nil {
		t.Fatal(err)
	}
	if met.Runs.Value() != 1 {
		t.Fatalf("after one run: runs=%d, want 1", met.Runs.Value())
	}
	steps := met.Steps.Value()
	if steps == 0 {
		t.Fatal("run reported 0 steps")
	}
	if _, err := tw.Run(m, "main"); err != nil {
		t.Fatal(err)
	}
	if met.Runs.Value() != 2 || met.Steps.Value() != 2*steps {
		t.Fatalf("after two runs: runs=%d steps=%d, want 2/%d",
			met.Runs.Value(), met.Steps.Value(), 2*steps)
	}
}

// TestDisabledMetricsAddNoAllocs is the alloc guard: an interpreter
// with telemetry disabled (nil Metrics) allocates exactly as much per
// run as one with telemetry enabled — instrument updates are atomic
// adds, never allocations — so leaving instrumentation in the hot path
// is free.
func TestDisabledMetricsAddNoAllocs(t *testing.T) {
	m := mustParse(t, straightLineSrc(8))

	off := dialects.NewExecutor()
	on := dialects.NewExecutor()
	on.Metrics = interp.NewMetrics(telemetry.NewRegistry())

	run := func(in *interp.Interpreter) func() {
		return func() {
			if _, err := in.Run(m, "main"); err != nil {
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
