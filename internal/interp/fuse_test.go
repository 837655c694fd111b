package interp_test

import (
	"testing"

	"ratte/internal/dialects"
	"ratte/internal/interp"
	"ratte/internal/telemetry"
)

// TestFusedLoopBodiesDoNotAllocate is the superinstruction alloc guard:
// a 2000-trip loop, structured or CFG-shaped, must run in O(1)
// allocations once compiled — intermediates stay in registers and the
// iteration state in reused scratch, so per-iteration cost is
// allocation-free. The bound is the handful of per-run setup
// allocations (frame, scratch headers), NOT per-iteration: any fusion
// regression that reintroduces boxing shows up here as thousands.
func TestFusedLoopBodiesDoNotAllocate(t *testing.T) {
	for _, w := range []struct{ name, src string }{
		{"scf_loop_2000", scfLoopSrc(2000)},
		{"cf_loop_2000", cfLoopSrc(2000)},
	} {
		t.Run(w.name, func(t *testing.T) {
			m := mustParse(t, w.src)
			prog := interp.Compile(dialects.ExecutorRegistry(), m)
			in := dialects.NewExecutor()
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := in.RunProgram(prog, "main"); err != nil {
					t.Fatal(err)
				}
			})
			// Measured steady state is 6 allocs/run; 8 leaves headroom
			// for runtime jitter without admitting per-iteration boxing.
			if allocs > 8 {
				t.Errorf("fused loop allocated %.1f per run, want <= 8", allocs)
			}
		})
	}
}

// TestFusionStatsReported pins the compile-time fusion census: the loop
// workloads fuse most of their ops (body blocks fuse whole), and
// disabling fusion zeroes every counter, so the telemetry observable
// actually distinguishes the two engines.
func TestFusionStatsReported(t *testing.T) {
	for _, w := range []struct{ name, src string }{
		{"scf_loop_2000", scfLoopSrc(2000)},
		{"cf_loop_2000", cfLoopSrc(2000)},
	} {
		t.Run(w.name, func(t *testing.T) {
			m := mustParse(t, w.src)
			fused := interp.Compile(dialects.ExecutorRegistry(), m)
			st := fused.FusionStats()
			if st.TotalOps == 0 || st.FusedOps == 0 || st.Blocks == 0 {
				t.Fatalf("fused program reports empty stats: %+v", st)
			}
			if r := st.Rate(); r <= 0.5 {
				t.Errorf("fusion rate = %.2f, want > 0.5 on a loop workload (stats %+v)", r, st)
			}

			plain := interp.CompileWith(dialects.ExecutorRegistry(), m,
				interp.CompileOptions{DisableFusion: true})
			if st := plain.FusionStats(); st.FusedOps != 0 || st.Runs != 0 || st.Blocks != 0 {
				t.Errorf("DisableFusion program reports fusion: %+v", st)
			}
		})
	}
}

// TestFusedStepsMetric checks the fusion-rate observable end to end: a
// fused loop run reports most of its steps through the FusedSteps
// counter, and an unfused run of the same module reports none.
func TestFusedStepsMetric(t *testing.T) {
	m := mustParse(t, scfLoopSrc(2000))

	fusedMet := interp.NewMetrics(telemetry.NewRegistry())
	in := dialects.NewExecutor()
	in.Metrics = fusedMet
	if _, err := in.RunProgram(interp.Compile(dialects.ExecutorRegistry(), m), "main"); err != nil {
		t.Fatal(err)
	}
	steps, fusedSteps := fusedMet.Steps.Value(), fusedMet.FusedSteps.Value()
	if fusedSteps == 0 {
		t.Fatal("fused loop run reported 0 fused steps")
	}
	if fusedSteps*2 < steps {
		t.Errorf("fused steps %d < half of %d total on a loop workload", fusedSteps, steps)
	}

	plainMet := interp.NewMetrics(telemetry.NewRegistry())
	pin := dialects.NewExecutor()
	pin.Metrics = plainMet
	prog := interp.CompileWith(dialects.ExecutorRegistry(), m, interp.CompileOptions{DisableFusion: true})
	if _, err := pin.RunProgram(prog, "main"); err != nil {
		t.Fatal(err)
	}
	if v := plainMet.FusedSteps.Value(); v != 0 {
		t.Errorf("DisableFusion run reported %d fused steps, want 0", v)
	}
}
