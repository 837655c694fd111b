package jsonl_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
	"ratte/internal/jsonl"
)

// replay opens the log at path with header as the only accepted line 1
// and any valid JSON as a record, returning the records it kept.
func replay(t *testing.T, path string, header []byte) (*jsonl.Log, []string) {
	t.Helper()
	var got []string
	l, err := jsonl.Open(path, func(line []byte) error {
		if !bytes.Equal(line, header) {
			return errors.New("header mismatch")
		}
		return nil
	}, func(line []byte) error {
		if !json.Valid(line) {
			return errors.New("not JSON")
		}
		got = append(got, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

// intact is the recovery rule stated independently of the reader: the
// newline-terminated lines of tail up to the first one that is not JSON.
func intact(tail []byte) []string {
	var kept []string
	for _, l := range strings.SplitAfter(string(tail), "\n") {
		if !strings.HasSuffix(l, "\n") || !json.Valid([]byte(l[:len(l)-1])) {
			break
		}
		kept = append(kept, l[:len(l)-1])
	}
	return kept
}

func lines(header []byte, records []string) []byte {
	var b bytes.Buffer
	for _, l := range append([]string{string(header)}, records...) {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// campaignJournal writes a small journaled campaign with detections
// and returns the journal's bytes.
func campaignJournal(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "campaign.jsonl")
	cfg := difftest.CampaignConfig{
		Preset: "ariths", Programs: 6, Size: 12, Seed: 97,
		Bugs: bugs.Only(bugs.RemoveDeadValuesCall),
	}
	j, err := difftest.CreateJournal(path, cfg)
	if err != nil {
		f.Fatal(err)
	}
	cfg.Journal = j
	if _, err := difftest.RunCampaign(cfg); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzOpen: a valid header followed by arbitrary bytes. Open never
// panics, keeps exactly the intact records, truncates the file to
// them, is idempotent, and appends after recovery read back.
func FuzzOpen(f *testing.F) {
	journal := campaignJournal(f)
	nl := bytes.IndexByte(journal, '\n')
	header, body := journal[:nl], journal[nl+1:]
	f.Add(body)
	f.Add(body[:len(body)-1])            // lost only its final newline
	f.Add(body[:len(body)/2])            // torn mid-record
	f.Add(append(body, "{}\n\n{}\n"...)) // blank line ends the prefix
	f.Add([]byte("garbage\n{}\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, append(lines(header, nil), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		want := intact(tail)
		l, got := replay(t, path, header)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kept %q, want %q", got, want)
		}
		recovered, _ := os.ReadFile(path)
		if !bytes.Equal(recovered, lines(header, want)) {
			t.Fatalf("recovered file %q, want header plus kept records", recovered)
		}

		l, again := replay(t, path, header)
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("second open kept %q, want %q", again, want)
		}
		if reopened, _ := os.ReadFile(path); !bytes.Equal(reopened, recovered) {
			t.Fatalf("second open changed the file: %q -> %q", recovered, reopened)
		}
		const record = `{"appended":true}`
		if err := l.Append(json.RawMessage(record)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, after := replay(t, path, header)
		l.Close()
		if want := append(want, record); !reflect.DeepEqual(after, want) {
			t.Fatalf("after append kept %q, want %q", after, want)
		}
	})
}

// TestOpenWithoutHeader: a missing file is the os error; an empty one,
// or one whose header line is torn, is ErrEmpty; a rejected header
// fails the open and leaves the file alone.
func TestOpenWithoutHeader(t *testing.T) {
	dir := t.TempDir()
	accept := func([]byte) error { return nil }
	write := func(path, data string) {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := jsonl.Open(filepath.Join(dir, "missing"), accept, accept); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %v, want fs.ErrNotExist", err)
	}
	for _, data := range []string{"", `{"ratte_jour`} {
		path := filepath.Join(dir, "log")
		write(path, data)
		if _, err := jsonl.Open(path, accept, accept); !errors.Is(err, jsonl.ErrEmpty) {
			t.Errorf("file %q: %v, want ErrEmpty", data, err)
		}
	}
	path := filepath.Join(dir, "other")
	const other = "{\"other\":1}\n{\"torn"
	write(path, other)
	if _, err := jsonl.Open(path, func([]byte) error { return errors.New("not mine") }, accept); err == nil {
		t.Error("rejected header opened")
	}
	if data, _ := os.ReadFile(path); string(data) != other {
		t.Errorf("rejected open changed the file to %q", data)
	}
}
