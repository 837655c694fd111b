// The coordinator's shard ledger: an append-only JSONL record of the
// fleet control plane's state transitions — worker admissions, lease
// grants, shard completions and splice offsets — kept alongside the
// campaign journal. The journal makes the campaign's *data* durable
// (the verdicts); the ledger makes the *control plane* durable: a
// coordinator restarted with -serve -resume rebuilds its shard queue
// under the recorded partitioning and resumes its epoch and worker-id
// counters strictly above every value it ever issued, so leases
// granted before the crash can never be confused with post-restart
// ones.
//
// The ledger is advisory where the journal is authoritative: shard
// done-ness on recovery comes from the journal's verdicts (the ledger
// stores none), and a missing or torn ledger only costs re-derived
// state, never correctness. The file mechanics — one-Write appends and
// torn-tail recovery — are the journal's and the spool's, internal/jsonl.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"strings"

	"ratte/internal/jsonl"
)

// ledgerVersion guards the on-disk format.
const ledgerVersion = 1

// ledgerHeader is line 1: the campaign fingerprint (the same JSON the
// registration handshake checks) plus the shard partitioning, which
// must be stable across restarts for shard ids to keep their meaning.
type ledgerHeader struct {
	Version     int             `json:"ratte_fleet_ledger"`
	Fingerprint json.RawMessage `json:"fingerprint"`
	ShardSize   int             `json:"shard_size"`
	Programs    int             `json:"programs"`
}

// ledgerEntry is one event line; exactly one field is set.
type ledgerEntry struct {
	Worker *ledgerWorker `json:"worker,omitempty"`
	Grant  *ledgerGrant  `json:"grant,omitempty"`
	Done   *ledgerDone   `json:"done,omitempty"`
	Splice *ledgerSplice `json:"splice,omitempty"`
}

// ledgerWorker records one worker admission.
type ledgerWorker struct {
	ID   string `json:"id"`
	Host string `json:"host,omitempty"`
}

// ledgerGrant records one lease issue (or re-issue, at a higher epoch).
type ledgerGrant struct {
	Shard  int    `json:"shard"`
	Epoch  int64  `json:"epoch"`
	Worker string `json:"worker"`
}

// ledgerDone records one accepted shard result.
type ledgerDone struct {
	Shard    int   `json:"shard"`
	Epoch    int64 `json:"epoch"`
	Verdicts int   `json:"verdicts"`
}

// ledgerSplice records the merge frontier advancing past a shard;
// Seeds is the cumulative merged seed count afterwards — the journal
// offset a recovery can cross-check against the journal's own line
// count.
type ledgerSplice struct {
	Shard int `json:"shard"`
	Seeds int `json:"seeds"`
}

// ledgerState is what a recovery derives from replaying a ledger.
type ledgerState struct {
	shardSize  int
	programs   int
	nextEpoch  int64 // max epoch ever granted
	nextWorker int   // max worker number ever admitted
	// done maps shard id -> true for shards the ledger saw spliced;
	// advisory (the journal is authoritative), used for cross-checks.
	done map[int]bool
}

// ledger is an open shard ledger accepting event appends. Not safe for
// concurrent use; the coordinator appends under its own mutex.
type ledger struct {
	log *jsonl.Log
}

// createLedger starts a fresh ledger at path, truncating any existing
// file, and writes the partitioning header.
func createLedger(path string, fingerprint []byte, shardSize, programs int) (*ledger, error) {
	log, err := jsonl.Create(path, ledgerHeader{
		Version:     ledgerVersion,
		Fingerprint: json.RawMessage(fingerprint),
		ShardSize:   shardSize,
		Programs:    programs,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: ledger: %w", err)
	}
	return &ledger{log: log}, nil
}

// openLedgerForResume replays the ledger at path, validates its
// fingerprint against the campaign's, truncates any torn tail, and
// returns the ledger reopened for appending together with the
// recovered control-plane state. A missing or empty ledger (a crash
// inside createLedger) returns all nils: there is no state to recover,
// and the caller starts a fresh one.
func openLedgerForResume(path string, fingerprint []byte) (*ledger, *ledgerState, error) {
	st := &ledgerState{done: make(map[int]bool)}
	log, err := jsonl.Open(path, func(line []byte) error {
		var hdr ledgerHeader
		if err := json.Unmarshal(line, &hdr); err != nil {
			return fmt.Errorf("%s: bad header: %w", path, err)
		}
		if hdr.Version != ledgerVersion {
			return fmt.Errorf("%s has version %d, want %d", path, hdr.Version, ledgerVersion)
		}
		if string(hdr.Fingerprint) != string(fingerprint) {
			return fmt.Errorf("%s was recorded under a different campaign config", path)
		}
		st.shardSize, st.programs = hdr.ShardSize, hdr.Programs
		return nil
	}, func(line []byte) error {
		var e ledgerEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		switch {
		case e.Worker != nil:
			if n, err := strconv.Atoi(strings.TrimPrefix(e.Worker.ID, "w")); err == nil && n > st.nextWorker {
				st.nextWorker = n
			}
		case e.Grant != nil:
			if e.Grant.Epoch > st.nextEpoch {
				st.nextEpoch = e.Grant.Epoch
			}
		case e.Splice != nil:
			st.done[e.Splice.Shard] = true
		}
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, jsonl.ErrEmpty) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: ledger: %w", err)
	}
	return &ledger{log: log}, st, nil
}

// append records one event as one line, so a crash can tear at most
// the final line.
func (l *ledger) append(e ledgerEntry) error {
	if err := l.log.Append(e); err != nil {
		return fmt.Errorf("fleet: ledger: %w", err)
	}
	return nil
}

// Close flushes and closes the ledger file.
func (l *ledger) Close() error { return l.log.Close() }
