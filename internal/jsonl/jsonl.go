// Package jsonl is the one durable-file mechanism behind the campaign
// journal, the fleet shard ledger and the worker upload spool: an
// append-only file of JSON lines whose line 1 is a header.
//
// Every record is marshaled first and handed to the kernel in a single
// Write, so a crash can tear at most the final line. Open recovers from
// that by one rule: the intact prefix ends at the first line that is
// incomplete (not newline-terminated) or that the caller's decoder
// rejects, and the file is truncated there. Truncation removes only
// bytes a later Open would drop again, so a crash during recovery is
// recovered the same way.
package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
)

// ErrEmpty reports a log file that exists but holds no complete header
// line — what a crash between Create's truncate and its header write
// leaves. Callers start such a log afresh, as they would a missing one.
var ErrEmpty = errors.New("log holds no complete header")

// Log is an open log accepting appends. It is not safe for concurrent
// use; every owner appends from one goroutine or under its own lock.
type Log struct {
	f *os.File
	// Appends made through this handle, atomic so that metrics can
	// read them from other goroutines while the owner appends.
	lines atomic.Int64
	bytes atomic.Int64
}

// Create starts a fresh log at path, replacing any existing file, with
// header as line 1.
func Create(path string, header any) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f}
	if err := l.Append(header); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Open replays the log at path and returns it reopened for appending.
// Line 1 goes to checkHeader, whose error aborts the open; every later
// line goes to decode, in file order, until the first incomplete line
// or the first line decode rejects. The file is then truncated to the
// lines decode accepted. A missing file is the os error; an empty one,
// or one whose header line is itself incomplete, is ErrEmpty.
func Open(path string, checkHeader, decode func(line []byte) error) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	end := bytes.IndexByte(data, '\n')
	if end < 0 {
		return nil, fmt.Errorf("%s: %w", path, ErrEmpty)
	}
	if err := checkHeader(data[:end]); err != nil {
		return nil, err
	}
	good := end + 1
	for good < len(data) {
		end := bytes.IndexByte(data[good:], '\n')
		if end < 0 || decode(data[good:good+end]) != nil {
			break
		}
		good += end + 1
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if good < len(data) {
		// Appends must start on an intact line boundary, and the cut
		// must be durable before they do.
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("recover: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("recover: %w", err)
		}
	}
	return &Log{f: f}, nil
}

// Append writes v as one JSON line in a single Write.
func (l *Log) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	n, err := l.f.Write(append(line, '\n'))
	if err != nil {
		return err
	}
	l.lines.Add(1)
	l.bytes.Add(int64(n))
	return nil
}

// Written reports the lines (a header included) and bytes this handle
// has appended. Safe for concurrent use.
func (l *Log) Written() (lines, bytes int64) { return l.lines.Load(), l.bytes.Load() }

// Close syncs the log to stable storage and closes it.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
