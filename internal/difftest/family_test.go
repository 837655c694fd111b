package difftest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/dialects"
	"ratte/internal/faultinject"
	"ratte/internal/gen"
	"ratte/internal/verify"
)

// TestParameterizedMainIsValidAndFaithful pins the parameterization
// contract across presets: the hoisted module still passes the
// frontend verifier, and member 0 (original constants as arguments)
// reproduces the generator's expected output exactly.
func TestParameterizedMainIsValidAndFaithful(t *testing.T) {
	for _, preset := range gen.Presets() {
		for seed := int64(0); seed < 8; seed++ {
			prog, err := gen.Generate(gen.Config{Preset: preset, Size: 14, Seed: seed})
			if err != nil {
				t.Fatalf("%s/%d: generate: %v", preset, seed, err)
			}
			pm, params := parameterizeMain(prog.Module)
			if err := verify.Module(pm, dialects.SourceSpecs()); err != nil {
				t.Fatalf("%s/%d: parameterized module fails verify: %v", preset, seed, err)
			}
			args := familyArgs(params, seed, 0)
			in := dialects.NewCompiledReferenceInterpreter()
			in.MaxSteps = familyMaxSteps
			res, err := in.RunArgs(pm, "main", args)
			if err != nil {
				t.Fatalf("%s/%d: member-0 reference run: %v", preset, seed, err)
			}
			if res.Output != prog.Expected {
				t.Fatalf("%s/%d: member 0 diverged from generator expectation:\n got %q\nwant %q",
					preset, seed, res.Output, prog.Expected)
			}
		}
	}
}

// TestFamilyCleanCompilerHasNoDetections: mutated inputs must never
// manufacture detections on a correct compiler — a member either
// agrees everywhere or is skipped for lack of defined reference
// behaviour.
func TestFamilyCleanCompilerHasNoDetections(t *testing.T) {
	for _, preset := range gen.Presets() {
		for _, batched := range []bool{false, true} {
			cfg := CampaignConfig{
				Preset: preset, Programs: 12, Size: 14, Seed: 300,
				FamilySize: 4, Batched: batched,
			}
			res, err := RunCampaign(cfg)
			if err != nil {
				t.Fatalf("%s/batched=%v: %v", preset, batched, err)
			}
			if len(res.Detections) != 0 {
				t.Fatalf("%s/batched=%v: clean compiler produced %d detections: %+v",
					preset, batched, len(res.Detections), res.Detections[0])
			}
			if res.Programs != cfg.Programs {
				t.Fatalf("%s/batched=%v: programs = %d, want %d", preset, batched, res.Programs, cfg.Programs)
			}
		}
	}
}

// TestBatchedMatchesUnbatched is the tentpole determinism contract:
// batched and unbatched family campaigns produce byte-identical
// ReportText, serial and parallel, with and without an injected bug.
func TestBatchedMatchesUnbatched(t *testing.T) {
	cases := []CampaignConfig{
		{Preset: "ariths", Programs: 16, Size: 16, Seed: 97, FamilySize: 4, Bugs: bugs.Only(bugs.RemoveDeadValuesCall)},
		{Preset: "linalggeneric", Programs: 12, Size: 14, Seed: 41, FamilySize: 3},
		{Preset: "tensor", Programs: 10, Size: 14, Seed: 55, FamilySize: 4},
	}
	for _, base := range cases {
		t.Run(fmt.Sprintf("%s_fam%d", base.Preset, base.FamilySize), func(t *testing.T) {
			unb := base
			unb.Batched = false
			want, err := RunCampaign(unb)
			if err != nil {
				t.Fatal(err)
			}
			bat := base
			bat.Batched = true
			got, err := RunCampaign(bat)
			if err != nil {
				t.Fatal(err)
			}
			if ReportText(got) != ReportText(want) {
				t.Fatalf("batched != unbatched (serial):\n got:\n%s\nwant:\n%s", ReportText(got), ReportText(want))
			}
			assertSameVerdicts(t, want, got)
			for _, workers := range []int{2, 4} {
				for _, batched := range []bool{false, true} {
					cfg := base
					cfg.Batched = batched
					pres, err := RunCampaignParallel(cfg, workers)
					if err != nil {
						t.Fatalf("workers=%d batched=%v: %v", workers, batched, err)
					}
					if ReportText(pres) != ReportText(want) {
						t.Fatalf("workers=%d batched=%v: parallel family run diverged:\n got:\n%s\nwant:\n%s",
							workers, batched, ReportText(pres), ReportText(want))
					}
					assertSameVerdicts(t, want, pres)
				}
			}
		})
	}
}

// assertSameVerdicts compares the per-seed verdict streams (ignoring
// panic stacks, which legitimately differ across engines).
func assertSameVerdicts(t *testing.T, want, got *CampaignResult) {
	t.Helper()
	if len(want.Verdicts) != len(got.Verdicts) {
		t.Fatalf("verdict count: got %d, want %d", len(got.Verdicts), len(want.Verdicts))
	}
	for i := range want.Verdicts {
		w, g := want.Verdicts[i], got.Verdicts[i]
		if w.Seed != g.Seed || w.Kind != g.Kind || w.Oracle != g.Oracle ||
			w.Attempts != g.Attempts || w.Quarantined != g.Quarantined {
			t.Fatalf("verdict %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestFamilyExercisesSkips pins that constant mutation actually
// reaches UB on the arithmetic preset (divisors drawn to zero, shifts
// out of range) and that those members are skipped, not misreported.
func TestFamilyExercisesSkips(t *testing.T) {
	cfg := CampaignConfig{
		Preset: "ariths", Programs: 40, Size: 18, Seed: 1000,
		FamilySize: 5, Batched: true,
	}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatalf("expected some skipped members across %d mutated programs; report:\n%s",
			cfg.Programs, ReportText(res))
	}
	if len(res.Detections) != 0 {
		t.Fatalf("clean compiler produced detections:\n%s", ReportText(res))
	}
}

// TestFamilyJournalResume: a batched family campaign journaled and
// interrupted must resume — even under the opposite strategy — to the
// exact same final report.
func TestFamilyJournalResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fam.jsonl")
	cfg := CampaignConfig{
		Preset: "ariths", Programs: 12, Size: 14, Seed: 77,
		FamilySize: 4, Batched: true,
	}
	full, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// First leg: journal a 7-program prefix (a partial family).
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	legCfg := cfg
	legCfg.Programs = 7
	legCfg.Journal = j
	if _, err := RunCampaign(legCfg); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Second leg: resume to the full count under the other strategy.
	j2, resumed, err := OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resCfg := cfg
	resCfg.Batched = false
	resCfg.Journal = j2
	resCfg.Resumed = resumed
	res, err := RunCampaign(resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if ReportText(res) != ReportText(full) {
		t.Fatalf("resumed family campaign diverged:\n got:\n%s\nwant:\n%s", ReportText(res), ReportText(full))
	}

	// A journal recorded under one family size must refuse another.
	other := cfg
	other.FamilySize = 3
	if _, _, err := OpenJournalForResume(path, other); err == nil {
		t.Fatal("journal resume accepted a different family size")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// TestFamilyResumeMidFamilyAcrossWorkers: a batched family campaign
// whose journal ends mid-family resumes to the uninterrupted report and
// verdicts at any worker count, and the resumed journal holds every
// seed exactly once.
func TestFamilyResumeMidFamilyAcrossWorkers(t *testing.T) {
	cfg := CampaignConfig{
		Preset: "ariths", Programs: 24, Size: 16, Seed: 97,
		FamilySize: 4, Batched: true, Bugs: bugs.Only(bugs.RemoveDeadValuesCall),
	}
	full, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fam.jsonl")
			j, err := CreateJournal(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			leg := cfg
			leg.Programs = 10 // two whole families and half of the third
			leg.Journal = j
			if _, err := RunCampaignParallel(leg, 1); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			j2, resumed, err := OpenJournalForResume(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(resumed) != leg.Programs {
				t.Fatalf("journal recovered %d verdicts, want %d", len(resumed), leg.Programs)
			}
			res := cfg
			res.Journal = j2
			res.Resumed = resumed
			got, err := RunCampaignParallel(res, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			if ReportText(got) != ReportText(full) {
				t.Fatalf("resumed family campaign diverged:\n got:\n%s\nwant:\n%s", ReportText(got), ReportText(full))
			}
			if d := DiffVerdicts(full.Verdicts, got.Verdicts); d != "" {
				t.Fatalf("resumed family verdicts diverged: %s", d)
			}
			_, again, err := OpenJournalForResume(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != cfg.Programs {
				t.Fatalf("resumed journal holds %d verdicts, want %d", len(again), cfg.Programs)
			}
		})
	}
}

// TestInvalidCampaignConfigsRejected: knobs that contradict each other
// are refused by every entry point — the campaign engines, the shard
// runner and the fingerprint the fleet coordinator checks at start —
// instead of one of them being silently ignored.
func TestInvalidCampaignConfigsRejected(t *testing.T) {
	plans, err := compiler.SamplePlans("ariths", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tensorPlans, err := compiler.SamplePlans("tensor", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignConfig{Preset: "ariths", Programs: 8, Size: 12, Seed: 9}
	family := base
	family.FamilySize = 4
	cases := []struct {
		name   string
		mutate func(*CampaignConfig)
	}{
		{"family+plans", func(c *CampaignConfig) { *c = family; c.Plans = plans }},
		{"family+faults", func(c *CampaignConfig) {
			*c = family
			c.Faults = &faultinject.Spec{Seed: 1, Rate: 0.1, Kinds: []faultinject.Kind{faultinject.KindError}}
		}},
		{"family+timeout", func(c *CampaignConfig) { *c = family; c.Timeout = time.Hour }},
		{"batched-without-family", func(c *CampaignConfig) { c.Batched = true }},
		{"batched-with-family-size-1", func(c *CampaignConfig) { c.Batched = true; c.FamilySize = 1 }},
		{"plan-preset-mismatch", func(c *CampaignConfig) { c.Plans = tensorPlans }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := RunCampaign(cfg); err == nil {
				t.Error("RunCampaign accepted the config")
			}
			if _, err := RunCampaignParallel(cfg, 4); err == nil {
				t.Error("RunCampaignParallel accepted the config")
			}
			if _, err := RunCampaignRange(context.Background(), cfg, 0, 4, 1); err == nil {
				t.Error("RunCampaignRange accepted the config")
			}
			if _, err := CampaignFingerprint(cfg); err == nil {
				t.Error("CampaignFingerprint accepted the config")
			}
		})
	}
	// The valid neighbours of those combinations still run. A family
	// campaign with coverage attached runs too, and collects none.
	covered := family
	covered.Batched = true
	covered.Coverage = NewCampaignCoverage(nil)
	for _, cfg := range []CampaignConfig{family, covered} {
		if _, err := RunCampaign(cfg); err != nil {
			t.Errorf("valid family config rejected: %v", err)
		}
	}
	if n := covered.Coverage.Sites(); n != 0 {
		t.Errorf("family campaign collected coverage at %d sites", n)
	}
}
