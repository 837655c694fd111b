package difftest_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
)

// journalCfg is a small campaign with real detections, used by every
// journal test.
func journalCfg(programs int) difftest.CampaignConfig {
	return difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: programs,
		Size:     16,
		Seed:     97,
		Bugs:     bugs.Only(bugs.RemoveDeadValuesCall),
	}
}

func runJournaled(t *testing.T, path string, cfg difftest.CampaignConfig) *difftest.CampaignResult {
	t.Helper()
	j, err := difftest.CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	res, err := difftest.RunCampaign(cfg)
	if cerr := j.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestJournalRoundTrip: every verdict a campaign records is recovered
// by OpenJournalForResume, keyed by seed.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := journalCfg(12)
	res := runJournaled(t, path, cfg)

	j, resumed, err := difftest.OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(resumed) != len(res.Verdicts) {
		t.Fatalf("recovered %d verdicts, campaign recorded %d", len(resumed), len(res.Verdicts))
	}
	var replay []difftest.Verdict
	for _, v := range res.Verdicts {
		got, ok := resumed[v.Seed]
		if !ok {
			t.Fatalf("seed %d missing from journal", v.Seed)
		}
		replay = append(replay, got)
	}
	if d := difftest.DiffVerdicts(res.Verdicts, replay); d != "" {
		t.Fatalf("journaled verdicts differ from in-memory: %s", d)
	}
}

// TestJournalResumeEqualsFresh: a campaign journaled halfway and then
// resumed (even extended to more programs) must reproduce the exact
// final report of an uninterrupted run — same verdicts, same report
// text, byte for byte — under both engines.
func TestJournalResumeEqualsFresh(t *testing.T) {
	fresh, err := difftest.RunCampaign(journalCfg(20))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	runJournaled(t, path, journalCfg(9)) // the "interrupted" first half

	for _, workers := range []int{1, 4} {
		cfg := journalCfg(20)
		j, resumed, err := difftest.OpenJournalForResume(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(resumed) != 9 {
			t.Fatalf("workers=%d: resumed %d verdicts, want 9", workers, len(resumed))
		}
		cfg.Resumed = resumed
		res, err := difftest.RunCampaignParallelCtx(context.Background(), cfg, workers)
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
		if d := difftest.DiffVerdicts(fresh.Verdicts, res.Verdicts); d != "" {
			t.Fatalf("workers=%d: resumed verdicts differ from fresh: %s", workers, d)
		}
		if a, b := difftest.ReportText(fresh), difftest.ReportText(res); a != b {
			t.Fatalf("workers=%d: resumed report differs from fresh:\n--- fresh\n%s--- resumed\n%s", workers, a, b)
		}
	}
}

// TestJournalTornLastLine: a crash mid-append tears at most the final
// line; recovery must keep every complete verdict, drop the torn tail,
// compact atomically, and resume to the same final report.
func TestJournalTornLastLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	cfg := journalCfg(10)
	runJournaled(t, path, cfg)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last verdict line mid-record.
	torn := data[:len(data)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j, resumed, err := difftest.OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 9 {
		t.Fatalf("recovered %d verdicts after torn line, want 9", len(resumed))
	}

	// Recovery compacted the file: intact lines only, newline-terminated.
	fixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) == 0 || fixed[len(fixed)-1] != '\n' {
		t.Fatalf("compacted journal not newline-terminated")
	}
	if got := strings.Count(string(fixed), "\n"); got != 10 { // header + 9 verdicts
		t.Fatalf("compacted journal has %d lines, want 10", got)
	}

	// Resuming the compacted journal re-runs the dropped seed and lands
	// on the uninterrupted run's exact report.
	resumeCfg := cfg
	resumeCfg.Resumed = resumed
	resumeCfg.Journal = j
	res, err := difftest.RunCampaign(resumeCfg)
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := difftest.DiffVerdicts(fresh.Verdicts, res.Verdicts); d != "" {
		t.Fatalf("post-recovery verdicts differ from fresh: %s", d)
	}
}

// TestJournalHeaderMismatch: a journal must refuse to resume under a
// campaign config that would reinterpret its verdicts.
func TestJournalHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	runJournaled(t, path, journalCfg(3))

	bad := []struct {
		name   string
		mutate func(*difftest.CampaignConfig)
	}{
		{"preset", func(c *difftest.CampaignConfig) { c.Preset = "tensor" }},
		{"seed", func(c *difftest.CampaignConfig) { c.Seed = 98 }},
		{"size", func(c *difftest.CampaignConfig) { c.Size = 17 }},
		{"bugs", func(c *difftest.CampaignConfig) { c.Bugs = bugs.None() }},
		{"faults", func(c *difftest.CampaignConfig) {
			c.Faults = &faultSpec
		}},
	}
	for _, tc := range bad {
		cfg := journalCfg(3)
		tc.mutate(&cfg)
		if _, _, err := difftest.OpenJournalForResume(path, cfg); err == nil {
			t.Errorf("%s: resume under a mismatched config succeeded, want error", tc.name)
		}
	}

	// A larger program count is NOT a mismatch: resume may extend a run.
	cfg := journalCfg(30)
	j, resumed, err := difftest.OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatalf("extending the program count should resume cleanly: %v", err)
	}
	j.Close()
	if len(resumed) != 3 {
		t.Fatalf("resumed %d verdicts, want 3", len(resumed))
	}
}

// TestJournalLostFinalNewline: a final verdict line that lost only its
// newline counts as torn. Keeping it would glue the resumed run's first
// append onto it, and the next resume would lose both lines.
func TestJournalLostFinalNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	runJournaled(t, path, journalCfg(10))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := journalCfg(12)
	j, resumed, err := difftest.OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 9 {
		t.Fatalf("recovered %d verdicts, want 9 (the unterminated line is torn)", len(resumed))
	}
	cfg.Resumed, cfg.Journal = resumed, j
	_, err = difftest.RunCampaign(cfg)
	j.Close()
	if err != nil {
		t.Fatal(err)
	}

	j, resumed, err = difftest.OpenJournalForResume(path, journalCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(resumed) != 12 {
		t.Fatalf("second resume recovered %d verdicts, want 12", len(resumed))
	}
}

// TestJournalEmptyResumes: an empty journal — a crash between
// CreateJournal's truncate and its header write — resumes as a fresh
// one instead of failing forever; a missing journal stays an error.
func TestJournalEmptyResumes(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := difftest.OpenJournalForResume(filepath.Join(dir, "missing.jsonl"), journalCfg(4)); err == nil {
		t.Fatal("missing journal resumed")
	}

	path := filepath.Join(dir, "campaign.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := journalCfg(4)
	j, resumed, err := difftest.OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatalf("empty journal: %v", err)
	}
	if len(resumed) != 0 {
		t.Fatalf("empty journal recovered %d verdicts", len(resumed))
	}
	cfg.Journal = j
	_, err = difftest.RunCampaign(cfg)
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.jsonl")
	runJournaled(t, fresh, journalCfg(4))
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(fresh)
	if string(a) != string(b) {
		t.Fatalf("journal resumed from empty differs from a fresh one:\n%s---\n%s", a, b)
	}
}
