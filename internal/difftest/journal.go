// The campaign journal: an append-only JSONL record that makes a
// campaign durable. Line 1 is a header fingerprinting the campaign
// configuration; every following line is one seed's final Verdict, in
// seed order. A journal plus the original flags reproduces the exact
// final report — the verdicts ARE the campaign, because programs are
// regenerable from their seeds.
package difftest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"ratte/internal/compiler"
)

// journalVersion guards the on-disk format.
const journalVersion = 1

// journalHeader fingerprints everything that determines a campaign's
// verdicts EXCEPT the program count: a resumed run may extend a
// campaign to more programs, but it must not silently reinterpret the
// recorded verdicts under a different preset, seed, bug set or fault
// schedule.
type journalHeader struct {
	Version   int     `json:"ratte_journal"`
	Preset    string  `json:"preset"`
	Size      int     `json:"size"`
	Seed      int64   `json:"seed"`
	Bugs      []int   `json:"bugs,omitempty"`
	FaultSeed int64   `json:"fault_seed,omitempty"`
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Family is the mutation-family size when family mode is active
	// (zero otherwise): family structure changes which program a seed
	// tests, so a journal recorded with one family size must not be
	// resumed under another. The Batched flag is deliberately absent —
	// it never changes verdicts.
	Family int `json:"family,omitempty"`
	// PlanCount and PlanSet identify a plan-mode campaign's sampled
	// plan set (zero outside plan mode): verdicts recorded under one
	// plan set mean nothing under another, so a resume with different
	// plans — even the same count — is rejected by fingerprint.
	PlanCount int    `json:"plans,omitempty"`
	PlanSet   uint64 `json:"plan_set,omitempty"`
}

func headerFor(cfg *CampaignConfig) journalHeader {
	h := journalHeader{
		Version: journalVersion,
		Preset:  cfg.Preset,
		Size:    cfg.Size,
		Seed:    cfg.Seed,
	}
	for id, on := range cfg.Bugs {
		if on {
			h.Bugs = append(h.Bugs, int(id))
		}
	}
	sort.Ints(h.Bugs)
	if cfg.Faults != nil {
		h.FaultSeed = cfg.Faults.Seed
		h.FaultRate = cfg.Faults.Rate
	}
	if cfg.FamilySize > 1 {
		h.Family = cfg.FamilySize
	}
	if len(cfg.Plans) > 0 {
		h.PlanCount = len(cfg.Plans)
		h.PlanSet = compiler.PlanSetFingerprint(cfg.Plans)
	}
	return h
}

func headerMatches(a, b journalHeader) bool {
	if a.Version != b.Version || a.Preset != b.Preset || a.Size != b.Size ||
		a.Seed != b.Seed || a.FaultSeed != b.FaultSeed || a.FaultRate != b.FaultRate ||
		a.Family != b.Family || a.PlanCount != b.PlanCount || a.PlanSet != b.PlanSet ||
		len(a.Bugs) != len(b.Bugs) {
		return false
	}
	for i := range a.Bugs {
		if a.Bugs[i] != b.Bugs[i] {
			return false
		}
	}
	return true
}

// Journal is an open campaign journal accepting verdict appends. It is
// not safe for concurrent use; the campaign engine's sequencer is its
// only writer and appends from a single goroutine, which is also what
// keeps the journal in seed order.
type Journal struct {
	f    *os.File
	path string
	// I/O accounting, atomic because telemetry's export-time gauges
	// read them from scrape goroutines while the campaign appends.
	lines atomic.Int64
	bytes atomic.Int64
}

// CreateJournal starts a fresh journal at path, truncating any
// existing file, and writes the config header.
func CreateJournal(path string, cfg CampaignConfig) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	line, err := json.Marshal(headerFor(&cfg))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := j.writeLine(line); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// OpenJournalForResume reads the journal at path, validates its header
// against cfg, and returns the journal reopened for appending together
// with the recorded verdicts keyed by seed (for CampaignConfig.Resumed).
//
// A torn final line — the crash the journal exists to survive — is
// recovered, not fatal: every complete verdict line is kept, the
// partial tail is dropped, and the journal is compacted via a
// write-to-temp-then-rename so the recovery itself is atomic.
func OpenJournalForResume(path string, cfg CampaignConfig) (*Journal, map[int64]Verdict, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed journal ends in "\n", leaving one empty trailing
	// element; anything else after the last newline is a torn write.
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("journal: %s is empty", path)
	}

	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, nil, fmt.Errorf("journal: %s: bad header: %w", path, err)
	}
	want := headerFor(&cfg)
	if !headerMatches(hdr, want) {
		return nil, nil, fmt.Errorf("journal: %s was recorded under a different campaign config (preset/size/seed/bugs/faults/plans must match)", path)
	}

	resumed := make(map[int64]Verdict, len(lines)-1)
	good := 1 // lines[:good] are intact (header included)
	for _, line := range lines[1:] {
		var v Verdict
		if err := json.Unmarshal(line, &v); err != nil {
			// Torn or corrupt line: everything before it stands,
			// everything from here on is dropped. Only the final line
			// can legitimately be torn; a corrupt middle line would
			// silently skip seeds, so re-run from the break instead.
			break
		}
		resumed[v.Seed] = v
		good++
	}

	if good != len(lines) {
		if err := compactJournal(path, lines[:good]); err != nil {
			return nil, nil, err
		}
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f, path: path}, resumed, nil
}

// compactJournal rewrites the journal to exactly the given intact
// lines, atomically: the replacement is fully written and synced to a
// sibling temp file before a rename swaps it in, so a crash during
// recovery leaves either the old journal or the recovered one — never
// a half-written hybrid.
func compactJournal(path string, lines [][]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: recover: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, line := range lines {
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("journal: recover: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: recover: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: recover: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: recover: %w", err)
	}
	return nil
}

// Append records one verdict. The line is marshaled first and handed
// to the kernel in a single Write call, so a crash mid-campaign can
// tear at most the final line — exactly the case OpenJournalForResume
// recovers.
func (j *Journal) Append(v Verdict) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return j.writeLine(line)
}

func (j *Journal) writeLine(line []byte) error {
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.lines.Add(1)
	j.bytes.Add(int64(len(buf)))
	return nil
}

// Written reports the lines (header included) and bytes this handle
// has appended. Safe for concurrent use.
func (j *Journal) Written() (lines, bytes int64) {
	return j.lines.Load(), j.bytes.Load()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
