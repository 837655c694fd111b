// The campaign journal: an append-only JSONL record that makes a
// campaign durable. Line 1 is a header fingerprinting the campaign
// configuration; every following line is one seed's final Verdict, in
// seed order. A journal plus the original flags reproduces the exact
// final report — the verdicts ARE the campaign, because programs are
// regenerable from their seeds. The file mechanics, shared with the
// fleet's shard ledger and upload spool, are internal/jsonl's.
package difftest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"ratte/internal/compiler"
	"ratte/internal/jsonl"
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

// Journal is an open campaign journal accepting verdict appends. It is
// not safe for concurrent use; the campaign engine's sequencer is its
// only writer and appends from a single goroutine, which is also what
// keeps the journal in seed order.
type Journal struct {
	log  *jsonl.Log
	path string
}

// CreateJournal starts a fresh journal at path, truncating any
// existing file, and writes the config header.
func CreateJournal(path string, cfg CampaignConfig) (*Journal, error) {
	log, err := jsonl.Create(path, headerFor(&cfg))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{log: log, path: path}, nil
}

// OpenJournalForResume reads the journal at path, validates its header
// against cfg, and returns the journal reopened for appending together
// with the recorded verdicts keyed by seed (for CampaignConfig.Resumed).
//
// A torn final line — the crash the journal exists to survive — is
// recovered, not fatal: every complete verdict line is kept and the
// file is truncated after it (see internal/jsonl). An empty journal,
// left by a crash inside CreateJournal, starts afresh; a missing one is
// an error.
func OpenJournalForResume(path string, cfg CampaignConfig) (*Journal, map[int64]Verdict, error) {
	want, err := json.Marshal(headerFor(&cfg))
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	resumed := make(map[int64]Verdict)
	log, err := jsonl.Open(path, func(line []byte) error {
		if !bytes.Equal(line, want) {
			return fmt.Errorf("%s was recorded under a different campaign config (preset/size/seed/bugs/faults/plans must match)", path)
		}
		return nil
	}, func(line []byte) error {
		// A corrupt middle line ends the intact prefix too: skipping
		// it would silently skip seeds, so re-run from the break.
		var v Verdict
		if err := json.Unmarshal(line, &v); err != nil {
			return err
		}
		resumed[v.Seed] = v
		return nil
	})
	if errors.Is(err, jsonl.ErrEmpty) {
		j, err := CreateJournal(path, cfg)
		return j, resumed, err
	}
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{log: log, path: path}, resumed, nil
}

// Append records one verdict as one line. A crash mid-campaign can
// tear at most the final line — exactly the case OpenJournalForResume
// recovers.
func (j *Journal) Append(v Verdict) error {
	if err := j.log.Append(v); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Written reports the lines (header included) and bytes this handle
// has appended. Safe for concurrent use.
func (j *Journal) Written() (lines, bytes int64) { return j.log.Written() }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if err := j.log.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
