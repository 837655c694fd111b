package difftest_test

import (
	"fmt"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/difftest"
	"ratte/internal/gen"
)

// TestCrossEngineDeterminism asserts the campaign engine's result does
// not depend on its worker count: for every preset, campaign mode
// (classic, batched family, plan), worker count and StopAtFirst mode,
// RunCampaignParallel must produce a result identical to RunCampaign —
// same program count, same detections (seed, oracle, program text,
// expected output, per-configuration report), same oracle tallies and
// same verdicts. Bugs are injected so detections actually occur and
// the detection paths are exercised, not just the empty case.
func TestCrossEngineDeterminism(t *testing.T) {
	plans, err := compiler.SamplePlans("ariths", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  difftest.CampaignConfig
	}{
		// Bug 3 (remove-dead-values drops calls) fires within a few
		// programs on every preset.
		{"ariths_bug3", difftest.CampaignConfig{Preset: "ariths", Programs: 24, Size: 16, Seed: 97, Bugs: bugs.Only(bugs.RemoveDeadValuesCall)}},
		{"linalggeneric_bug3", difftest.CampaignConfig{Preset: "linalggeneric", Programs: 24, Size: 16, Seed: 97, Bugs: bugs.Only(bugs.RemoveDeadValuesCall)}},
		{"tensor_bug3", difftest.CampaignConfig{Preset: "tensor", Programs: 24, Size: 16, Seed: 97, Bugs: bugs.Only(bugs.RemoveDeadValuesCall)}},
		// Bug 7 (floordivsi arith-expand) first fires at seed index 22
		// with this configuration, so StopAtFirst cancels a pipeline
		// that is already deep into speculative work.
		{"ariths_bug7_late", difftest.CampaignConfig{Preset: "ariths", Programs: 24, Size: 16, Seed: 97, Bugs: bugs.Only(bugs.FloorDivSiExpand)}},
		// Batched mutation families: the unit of work is a family of 4
		// seeds, and StopAtFirst can fire mid-family.
		{"ariths_family4_bug3", difftest.CampaignConfig{Preset: "ariths", Programs: 24, Size: 16, Seed: 97, Bugs: bugs.Only(bugs.RemoveDeadValuesCall), FamilySize: 4, Batched: true}},
		// Plan mode: every program under 4 sampled compilation plans.
		{"ariths_plans4_bug7", difftest.CampaignConfig{Preset: "ariths", Programs: 24, Size: 16, Seed: 200, Bugs: bugs.Only(bugs.FloorDivSiExpand), Plans: plans}},
	}
	for _, tc := range cases {
		for _, stop := range []bool{false, true} {
			cfg := tc.cfg
			cfg.StopAtFirst = stop
			t.Run(fmt.Sprintf("%s/stop=%v", tc.name, stop), func(t *testing.T) {
				serial, err := difftest.RunCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(serial.Detections) == 0 {
					t.Fatalf("campaign found no detections; the determinism check needs some")
				}
				for _, workers := range []int{1, 2, 4, 8} {
					parallel, err := difftest.RunCampaignParallel(cfg, workers)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					assertSameResult(t, workers, serial, parallel)
				}
			})
		}
	}
}

// assertSameResult compares two campaign results field by field,
// including the detected programs' printed text, the full
// per-configuration (or per-plan) reports and the verdict streams.
func assertSameResult(t *testing.T, workers int, serial, parallel *difftest.CampaignResult) {
	t.Helper()
	if d := difftest.DiffResults(serial, parallel); d != "" {
		t.Errorf("workers=%d: parallel differs from serial: %s", workers, d)
	}
}

// TestParallelStopAtFirstProgramCount pins the satellite fix: under
// StopAtFirst the parallel runner must report the serial runner's
// program count (programs tested up to and including the first in-order
// detection), not the number of speculatively drained jobs.
func TestParallelStopAtFirstProgramCount(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset:      "ariths",
		Programs:    24,
		Size:        16,
		Seed:        97,
		Bugs:        bugs.Only(bugs.FloorDivSiExpand),
		StopAtFirst: true,
	}
	serial, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Detections) != 1 {
		t.Fatalf("serial campaign found %d detections, want 1", len(serial.Detections))
	}
	if serial.Programs == cfg.Programs {
		t.Fatalf("serial campaign did not stop early; pick a later-firing configuration")
	}
	for _, workers := range []int{2, 4, 8} {
		parallel, err := difftest.RunCampaignParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if parallel.Programs != serial.Programs {
			t.Errorf("workers=%d: programs = %d, want %d (serial)", workers, parallel.Programs, serial.Programs)
		}
		if len(parallel.Detections) != 1 || parallel.Detections[0].Seed != serial.Detections[0].Seed {
			t.Errorf("workers=%d: wrong first detection", workers)
		}
		if parallel.ByOracle[serial.Detections[0].Oracle] != 1 || len(parallel.ByOracle) != 1 {
			t.Errorf("workers=%d: byOracle = %v", workers, parallel.ByOracle)
		}
	}
}

// TestPresetsCoveredByDeterminism keeps the determinism matrix honest:
// if a new generator preset is added, this fails until the matrix above
// covers it.
func TestPresetsCoveredByDeterminism(t *testing.T) {
	covered := map[string]bool{"ariths": true, "linalggeneric": true, "tensor": true}
	for _, p := range gen.Presets() {
		if !covered[p] {
			t.Errorf("preset %q is not covered by TestCrossEngineDeterminism", p)
		}
	}
}
