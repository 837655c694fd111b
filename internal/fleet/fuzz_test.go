package fleet

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"

	"ratte/internal/difftest"
)

// FuzzDecodeShard: an upload body is bytes from another process.
// Arbitrary bodies never panic the decoder, and whatever decodes
// re-encodes to a body that decodes to the same verdicts and snapshot
// (encodeShard∘decodeShard is idempotent).
func FuzzDecodeShard(f *testing.F) {
	// Seeds: a journal written by a real campaign — its verdict lines
	// are an upload body's exact format — and the same verdicts behind
	// a snapshot line.
	cfg := testCampaign(6)
	path := filepath.Join(f.TempDir(), "campaign.jsonl")
	j, err := difftest.CreateJournal(path, cfg)
	if err != nil {
		f.Fatal(err)
	}
	cfg.Journal = j
	res, err := difftest.RunCampaign(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	var plain bytes.Buffer
	zw := gzip.NewWriter(&plain)
	zw.Write(journal[bytes.IndexByte(journal, '\n')+1:])
	zw.Close()
	f.Add(plain.Bytes())
	withSnap, err := encodeShard(res.Verdicts, &shardSnapshot{
		Marker: 1, Shard: 2, Epoch: 3, Worker: "w1", SpoolDepth: 1,
		Counters: map[string]uint64{`ratte_campaign_verdicts_total{kind="ok"}`: 6},
		Coverage: map[string]uint64{"interp/arith.addi": 9},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withSnap)
	f.Add(withSnap[:len(withSnap)/2])
	f.Add([]byte("not gzip"))

	f.Fuzz(func(t *testing.T, body []byte) {
		vs, snap, err := decodeShard(bytes.NewReader(body))
		if err != nil {
			return
		}
		enc, err := encodeShard(vs, snap)
		if err != nil {
			t.Fatal(err)
		}
		vs2, snap2, err := decodeShard(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded body does not decode: %v", err)
		}
		if d := difftest.DiffVerdicts(vs, vs2); d != "" {
			t.Fatalf("verdicts changed across a round trip: %s", d)
		}
		if (snap == nil) != (snap2 == nil) {
			t.Fatalf("snapshot presence changed across a round trip: %v -> %v", snap != nil, snap2 != nil)
		}
		enc2, err := encodeShard(vs2, snap2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encodeShard∘decodeShard is not idempotent")
		}
	})
}
