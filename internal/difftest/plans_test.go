package difftest_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/difftest"
	"ratte/internal/gen"
)

func samplePlans(t *testing.T, preset string, n int, seed int64) []compiler.Plan {
	t.Helper()
	plans, err := compiler.SamplePlans(preset, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

func planCfg(programs int, bugSet bugs.Set) difftest.CampaignConfig {
	return difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: programs,
		Size:     16,
		Seed:     200,
		Bugs:     bugSet,
	}
}

// TestPlanCampaignCleanCompilerIsQuiet: with no injected bugs, every
// sampled legal plan agrees with the reference on every program — the
// no-false-positives property that makes plan fuzzing usable at all.
func TestPlanCampaignCleanCompilerIsQuiet(t *testing.T) {
	cfg := planCfg(40, bugs.None())
	cfg.Plans = samplePlans(t, "ariths", 8, 1)
	res, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detections) != 0 {
		t.Fatalf("clean compiler produced %d plan-mode detections; first: seed %d plan %s",
			len(res.Detections), res.Detections[0].Seed, res.Detections[0].Plan)
	}
	if res.Plans != 8 || res.PlanSet == 0 {
		t.Errorf("result plan set not stamped: %d plans, set %016x", res.Plans, res.PlanSet)
	}
}

// TestPlanCampaignFindsLoweringBug: bug 6 lives in the direct
// convert-arith-to-llvm conversion and fires exactly when arith-expand
// is absent — i.e. under the bare-skeleton plan every sampled set
// contains. The fixed-config campaign needs the O1-noexpand config to
// see it; plan mode reaches it through the plan axis.
func TestPlanCampaignFindsLoweringBug(t *testing.T) {
	cfg := planCfg(60, bugs.Only(bugs.CeilDivSiConvert))
	cfg.Plans = samplePlans(t, "ariths", 8, 1)
	res, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detections) == 0 {
		t.Fatal("plan campaign missed the ceildivsi lowering bug")
	}
	d := res.Detections[0]
	if d.Plan == "" {
		t.Error("detection not attributed to a plan")
	}
	if d.PlanReport == nil {
		t.Fatal("detection carries no plan report")
	}
	if d.Report != nil {
		t.Error("plan-mode detection carries a classic report")
	}
	for _, v := range res.Verdicts {
		if v.Kind == difftest.VerdictDetection {
			if v.Plan == "" {
				t.Errorf("seed %d: detection verdict missing plan tag", v.Seed)
			}
			if v.Program == 0 {
				t.Errorf("seed %d: detection verdict missing program fingerprint", v.Seed)
			}
		}
	}
	if res.DistinctDetections == 0 || res.DistinctDetections > len(res.Detections) {
		t.Errorf("distinct detections %d outside (0, %d]", res.DistinctDetections, len(res.Detections))
	}
}

// TestPlanCampaignParallelMatchesSerial pins plan-mode byte-determinism
// across engines and worker counts, including the rendered report.
func TestPlanCampaignParallelMatchesSerial(t *testing.T) {
	cfg := planCfg(30, bugs.Only(bugs.CeilDivSiConvert))
	cfg.Plans = samplePlans(t, "ariths", 6, 3)
	serial, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, err := difftest.RunCampaignParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if d := difftest.DiffResults(serial, par); d != "" {
			t.Fatalf("workers=%d: %s", workers, d)
		}
		if difftest.ReportText(serial) != difftest.ReportText(par) {
			t.Fatalf("workers=%d: report text differs", workers)
		}
	}
}

// TestPlanCampaignJournalResume: a plan-mode campaign interrupted
// mid-run resumes from its journal to the byte-identical final report.
func TestPlanCampaignJournalResume(t *testing.T) {
	dir := t.TempDir()
	cfg := planCfg(24, bugs.Only(bugs.CeilDivSiConvert))
	cfg.Plans = samplePlans(t, "ariths", 6, 3)

	full := runJournaled(t, filepath.Join(dir, "full.jsonl"), cfg)

	// Record a truncated prefix, then resume it to the full count.
	path := filepath.Join(dir, "partial.jsonl")
	part := cfg
	part.Programs = 10
	runJournaled(t, path, part)

	j, resumed, err := difftest.OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	re := cfg
	re.Journal = j
	re.Resumed = resumed
	res, err := difftest.RunCampaign(re)
	if cerr := j.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if d := difftest.DiffResults(full, res); d != "" {
		t.Fatalf("resumed run differs: %s", d)
	}
	if difftest.ReportText(full) != difftest.ReportText(res) {
		t.Fatal("resumed report text differs")
	}
}

// TestPlanJournalRejectsDifferentPlanSet: same count, different plans
// — the header's plan-set fingerprint must refuse the resume.
func TestPlanJournalRejectsDifferentPlanSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.jsonl")
	cfg := planCfg(6, bugs.None())
	cfg.Plans = samplePlans(t, "ariths", 6, 3)
	runJournaled(t, path, cfg)

	other := cfg
	other.Plans = samplePlans(t, "ariths", 6, 4)
	if _, _, err := difftest.OpenJournalForResume(path, other); err == nil {
		t.Fatal("resume under a different plan set accepted")
	}
	// The original plan set still resumes.
	j, _, err := difftest.OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
}

// TestPlanReportKeysByFingerprint: two plans sharing a display name
// stay distinct through TestModulePlans — the satellite-4 regression.
func TestPlanReportKeysByFingerprint(t *testing.T) {
	skel, err := compiler.PlanSkeleton("ariths")
	if err != nil {
		t.Fatal(err)
	}
	a := compiler.Plan{Preset: "ariths", Passes: append([]string{"arith-expand"}, skel...)}
	b := compiler.Plan{Preset: "ariths", Passes: append([]string{"canonicalize"}, skel...)}
	if a.Name() != b.Name() {
		t.Fatalf("fixture plans must share a name: %s vs %s", a.Name(), b.Name())
	}
	prog, err := gen.Generate(gen.Config{Preset: "ariths", Size: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Under bug 6 the no-expand plan (b) can diverge while a stays
	// clean; if results keyed by name the two would merge silently.
	rep := difftest.TestModulePlans(prog.Module, prog.Expected, []compiler.Plan{a, b}, bugs.Only(bugs.CeilDivSiConvert))
	if len(rep.Results) != 2 {
		t.Fatalf("plan report holds %d results, want 2 (name-keyed merge?)", len(rep.Results))
	}
	if _, ok := rep.Results[a.Key()]; !ok {
		t.Errorf("result for %s missing", a.Key())
	}
	if _, ok := rep.Results[b.Key()]; !ok {
		t.Errorf("result for %s missing", b.Key())
	}
}

// TestPlanReportText: the plan-mode lines render and stay stable.
func TestPlanReportText(t *testing.T) {
	cfg := planCfg(20, bugs.Only(bugs.CeilDivSiConvert))
	cfg.Plans = samplePlans(t, "ariths", 6, 1)
	res, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	text := difftest.ReportText(res)
	if !strings.Contains(text, "plans per program: 6") {
		t.Errorf("report missing plan-set line:\n%s", text)
	}
	if len(res.Detections) > 0 {
		if !strings.Contains(text, "distinct program-plan detections:") {
			t.Errorf("report missing dedup line:\n%s", text)
		}
		if !strings.Contains(text, "(plan plan-") {
			t.Errorf("first-detection line missing plan key:\n%s", text)
		}
	}
}

// TestPlanCampaignCancellation: plan mode honours context cancellation
// with a resumable partial result, like the classic engine.
func TestPlanCampaignCancellation(t *testing.T) {
	cfg := planCfg(200, bugs.None())
	cfg.Plans = samplePlans(t, "ariths", 6, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := difftest.RunCampaignCtx(ctx, cfg)
	if err == nil {
		t.Fatal("cancelled plan campaign returned nil error")
	}
	if res == nil {
		t.Fatal("cancelled plan campaign returned nil result")
	}
	if res.Programs >= cfg.Programs {
		t.Fatalf("cancelled campaign claims %d programs", res.Programs)
	}
}
