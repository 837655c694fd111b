// The worker's upload spool: an append-only JSONL file that makes a
// completed shard durable on the worker before — and while — its
// upload is in flight. A shard that ran for minutes must not be lost
// to a coordinator restart, a flaky link, or the worker's own crash:
// the verdict stream is spooled first, the upload retries against the
// spool entry, and a restarted worker (same -spool path) re-uploads
// every un-acknowledged entry before leasing new work. Uploads are
// idempotent — the coordinator discards a shard it already holds — so
// replaying the spool after a mid-body disconnect can only ever be a
// no-op or the delivery that was lost. Its file mechanics are the
// journal's and the ledger's, internal/jsonl.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"slices"

	"ratte/internal/jsonl"
)

// spoolVersion guards the on-disk format.
const spoolVersion = 1

// spoolHeader is line 1: the campaign fingerprint, so a spool recorded
// under one campaign is never replayed into another.
type spoolHeader struct {
	Version     int             `json:"ratte_fleet_spool"`
	Fingerprint json.RawMessage `json:"fingerprint"`
}

// spoolRecord is one line after the header; exactly one field is set.
type spoolRecord struct {
	Entry    *spoolEntry `json:"entry,omitempty"`
	Uploaded *spoolMark  `json:"uploaded,omitempty"`
}

// spoolEntry is one completed shard awaiting acknowledgement: the
// lease identity plus the exact gzip'd JSONL body the upload sends
// (JSON base64-encodes Body).
type spoolEntry struct {
	Shard int    `json:"shard"`
	Epoch int64  `json:"epoch"`
	First int    `json:"first"`
	Count int    `json:"count"`
	Body  []byte `json:"body"`
}

// spoolMark acknowledges an entry: the coordinator accepted the shard
// (or discarded it as a duplicate — equally final).
type spoolMark struct {
	Shard int   `json:"shard"`
	Epoch int64 `json:"epoch"`
}

// spool is an open upload spool. Not safe for concurrent use; the
// worker appends from its single shard loop.
type spool struct {
	log *jsonl.Log
}

// openSpool opens (or creates) the spool at path for the campaign
// identified by fingerprint and returns the entries still awaiting
// acknowledgement, oldest first. A torn final line — the worker
// crashed mid-append — is truncated away; the shard it described is
// simply re-leased and re-run, which is always safe. A spool recorded
// under a different campaign fingerprint is refused.
func openSpool(path string, fingerprint []byte) (*spool, []spoolEntry, error) {
	hdr := spoolHeader{Version: spoolVersion, Fingerprint: json.RawMessage(fingerprint)}
	want, err := json.Marshal(hdr)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: spool: %w", err)
	}
	var pending []spoolEntry
	find := func(shard int, epoch int64) int {
		return slices.IndexFunc(pending, func(e spoolEntry) bool { return e.Shard == shard && e.Epoch == epoch })
	}
	log, err := jsonl.Open(path, func(line []byte) error {
		if !bytes.Equal(line, want) {
			return fmt.Errorf("%s was recorded under a different campaign config", path)
		}
		return nil
	}, func(line []byte) error {
		var r spoolRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		switch {
		case r.Entry != nil:
			if i := find(r.Entry.Shard, r.Entry.Epoch); i >= 0 {
				pending[i] = *r.Entry
			} else {
				pending = append(pending, *r.Entry)
			}
		case r.Uploaded != nil:
			if i := find(r.Uploaded.Shard, r.Uploaded.Epoch); i >= 0 {
				pending = slices.Delete(pending, i, i+1)
			}
		}
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, jsonl.ErrEmpty) {
		log, err = jsonl.Create(path, hdr)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: spool: %w", err)
	}
	return &spool{log: log}, pending, nil
}

// add spools one completed shard before its upload is attempted.
func (s *spool) add(e spoolEntry) error {
	return s.append(spoolRecord{Entry: &e})
}

// markUploaded acknowledges an entry after the coordinator accepted
// (or duplicate-discarded) it, so a later replay skips it.
func (s *spool) markUploaded(shard int, epoch int64) error {
	return s.append(spoolRecord{Uploaded: &spoolMark{Shard: shard, Epoch: epoch}})
}

func (s *spool) append(r spoolRecord) error {
	if err := s.log.Append(r); err != nil {
		return fmt.Errorf("fleet: spool: %w", err)
	}
	return nil
}

// Close flushes and closes the spool file.
func (s *spool) Close() error { return s.log.Close() }
