// White-box tests of the chaos-hardening machinery: torn uploads, the
// shard ledger, the worker upload spool, fleet-token auth, detection
// dedup, and ledger-pinned coordinator recovery. The end-to-end
// kill/restart and network-fault tests live in chaos_e2e_test.go.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
)

// TestTornUploadLeavesLeaseAndJournal: a shard result truncated
// mid-gzip is rejected without touching the lease or the journal — no
// partial splice, no state change — and the honest re-upload then
// lands normally. This is the wire picture of a worker dying (or a
// connection dropping) mid-upload.
func TestTornUploadLeavesLeaseAndJournal(t *testing.T) {
	cfg := testCampaign(8)
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	jcfg := cfg
	j, err := difftest.CreateJournal(path, jcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	jcfg.Journal = j
	c, err := NewCoordinator(CoordinatorConfig{Campaign: jcfg, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	w1 := register(t, c)
	l := lease(t, c, w1)
	if l.Shard == nil {
		t.Fatal("no shard leased")
	}
	vs, err := difftest.RunCampaignRange(context.Background(), c.camp, l.Shard.First, l.Shard.Count, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := encodeVerdicts(vs)
	if err != nil {
		t.Fatal(err)
	}
	linesBefore, bytesBefore := j.Written()

	rec := httptest.NewRecorder()
	c.handleResult(rec, httptest.NewRequest("POST",
		pathResult+"?shard=0&worker="+w1, bytes.NewReader(body[:len(body)/2])))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("torn upload: status %d, want 400", rec.Code)
	}
	if got := c.tornUploads.Value(); got != 1 {
		t.Fatalf("tornUploads counter = %d, want 1", got)
	}
	c.mu.Lock()
	state, epoch := c.shards[0].state, c.shards[0].epoch
	c.mu.Unlock()
	if state != shardLeased || epoch != l.Shard.Epoch {
		t.Fatalf("torn upload disturbed the lease: state %v epoch %d, want leased at %d",
			state, epoch, l.Shard.Epoch)
	}
	if lines, b := j.Written(); lines != linesBefore || b != bytesBefore {
		t.Fatalf("torn upload touched the journal: %d lines %d bytes, was %d/%d",
			lines, b, linesBefore, bytesBefore)
	}

	// The honest upload of the same shard still lands.
	rec = httptest.NewRecorder()
	c.handleResult(rec, httptest.NewRequest("POST",
		pathResult+"?shard=0&worker="+w1, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("honest upload after torn one: status %d: %s", rec.Code, rec.Body.String())
	}
	if lines, _ := j.Written(); lines != linesBefore+int64(len(vs)) {
		t.Fatalf("journal has %d lines after accepted shard, want %d", lines, linesBefore+int64(len(vs)))
	}
}

// TestLedgerRoundTrip: create, append, close, replay — the recovered
// state carries the partitioning and the counters above every issued
// value; a torn final line is truncated away and appends continue.
func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ledger")
	fp := []byte(`{"cfg":1}`)
	l, err := createLedger(path, fp, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	events := []ledgerEntry{
		{Worker: &ledgerWorker{ID: "w1", Host: "h"}},
		{Grant: &ledgerGrant{Shard: 0, Epoch: 1, Worker: "w1"}},
		{Done: &ledgerDone{Shard: 0, Epoch: 1, Verdicts: 4}},
		{Splice: &ledgerSplice{Shard: 0, Seeds: 4}},
		{Worker: &ledgerWorker{ID: "w2"}},
		{Grant: &ledgerGrant{Shard: 1, Epoch: 2, Worker: "w2"}},
	}
	for _, e := range events {
		if err := l.append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: half a JSON line, as a crash mid-append leaves it.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"grant":{"sha`)
	f.Close()

	l2, st, err := openLedgerForResume(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st.shardSize != 4 || st.programs != 16 {
		t.Fatalf("recovered partitioning %d/%d, want 4/16", st.shardSize, st.programs)
	}
	if st.nextEpoch != 2 || st.nextWorker != 2 {
		t.Fatalf("recovered counters epoch=%d worker=%d, want 2/2", st.nextEpoch, st.nextWorker)
	}
	if !st.done[0] || st.done[1] {
		t.Fatalf("recovered splice set %v, want shard 0 only", st.done)
	}
	// Post-recovery appends land on an intact line boundary.
	if err := l2.append(ledgerEntry{Grant: &ledgerGrant{Shard: 1, Epoch: 3, Worker: "w2"}}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, err := openLedgerForResume(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st2.nextEpoch != 3 {
		t.Fatalf("post-recovery append lost: nextEpoch %d, want 3", st2.nextEpoch)
	}

	// A ledger from a different campaign is refused.
	if _, _, err := openLedgerForResume(path, []byte(`{"cfg":2}`)); err == nil {
		t.Fatal("mismatched-fingerprint ledger accepted")
	}
}

// TestSpoolRoundTrip: unacknowledged entries survive a close/reopen
// byte for byte, acknowledged ones do not, a torn tail is recovered,
// and a spool from another campaign is refused.
func TestSpoolRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.spool")
	fp := []byte(`{"cfg":1}`)
	s, pending, err := openSpool(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh spool has %d pending entries", len(pending))
	}
	e1 := spoolEntry{Shard: 0, Epoch: 1, First: 0, Count: 4, Body: []byte("gzip-one")}
	e2 := spoolEntry{Shard: 1, Epoch: 2, First: 4, Count: 4, Body: []byte("gzip-two")}
	if err := s.add(e1); err != nil {
		t.Fatal(err)
	}
	if err := s.add(e2); err != nil {
		t.Fatal(err)
	}
	if err := s.markUploaded(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail as a worker crash mid-append would.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"entry":{"shard":9`)
	f.Close()

	s2, pending, err := openSpool(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(pending) != 1 {
		t.Fatalf("reopened spool has %d pending entries, want 1", len(pending))
	}
	got := pending[0]
	if got.Shard != 1 || got.Epoch != 2 || got.First != 4 || got.Count != 4 || !bytes.Equal(got.Body, e2.Body) {
		t.Fatalf("pending entry corrupted: %+v", got)
	}

	if _, _, err := openSpool(path, []byte(`{"cfg":2}`)); err == nil {
		t.Fatal("mismatched-fingerprint spool accepted")
	}
}

// stripFinalNewline leaves the file's last line unterminated, as a
// crash can when the newline is the only byte of a record not to land.
func stripFinalNewline(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(data, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerLostFinalNewline: an unterminated final grant is torn, not
// kept. Keeping it would glue the restarted coordinator's next grant
// onto it, and a second restart would lose both — and re-issue an
// epoch it had already granted.
func TestLedgerLostFinalNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ledger")
	fp := []byte(`{"cfg":1}`)
	l, err := createLedger(path, fp, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := int64(1); epoch <= 3; epoch++ {
		if err := l.append(ledgerEntry{Grant: &ledgerGrant{Shard: 0, Epoch: epoch, Worker: "w1"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stripFinalNewline(t, path)

	l2, st, err := openLedgerForResume(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st.nextEpoch != 2 {
		t.Fatalf("recovered nextEpoch %d, want 2 (the unterminated grant is torn)", st.nextEpoch)
	}
	if err := l2.append(ledgerEntry{Grant: &ledgerGrant{Shard: 0, Epoch: 3, Worker: "w1"}}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, err = openLedgerForResume(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st.nextEpoch != 3 {
		t.Fatalf("post-recovery grant lost: nextEpoch %d, want 3", st.nextEpoch)
	}
}

// TestSpoolLostFinalNewline: an unterminated final upload mark is torn,
// so its entry stays pending, and the marks written after recovery
// survive the next reopen.
func TestSpoolLostFinalNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.spool")
	fp := []byte(`{"cfg":1}`)
	s, _, err := openSpool(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		if err := s.add(spoolEntry{Shard: shard, Epoch: 1, First: 4 * shard, Count: 4, Body: []byte("gzip")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.markUploaded(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stripFinalNewline(t, path)

	s2, pending, err := openSpool(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 {
		t.Fatalf("reopened spool has %d pending entries, want 2 (the unterminated mark is torn)", len(pending))
	}
	if err := s2.markUploaded(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	_, pending, err = openSpool(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Shard != 0 {
		t.Fatalf("after a post-recovery mark, pending = %+v, want shard 0 only", pending)
	}
}

// TestCoordinatorEmptyLedgerResumes: an empty ledger — a crash between
// createLedger's truncate and its header write — lets -serve -resume
// start afresh instead of refusing forever, as a missing one does.
func TestCoordinatorEmptyLedgerResumes(t *testing.T) {
	lpath := filepath.Join(t.TempDir(), "fleet.ledger")
	if err := os.WriteFile(lpath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Campaign: testCampaign(12), ShardSize: 4, LedgerPath: lpath, ResumeLedger: true,
	})
	if err != nil {
		t.Fatalf("empty ledger: %v", err)
	}
	c.Close()
	_, st, err := openLedgerForResume(lpath, []byte(c.fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.shardSize != 4 || st.programs != 12 {
		t.Fatalf("restarted ledger state %+v, want a fresh header for 12 programs in shards of 4", st)
	}
}

// TestFleetTokenAuth: with a token configured, protocol requests
// without it (or with the wrong one) are rejected 401 and counted;
// the right token passes through to the handler.
func TestFleetTokenAuth(t *testing.T) {
	cfg := testCampaign(4)
	c, err := NewCoordinator(CoordinatorConfig{Campaign: cfg, Token: "hunter2"})
	if err != nil {
		t.Fatal(err)
	}
	h := c.requireToken(c.handleLease)
	body, _ := json.Marshal(leaseRequest{WorkerID: "nobody"})

	send := func(token string) int {
		req := httptest.NewRequest("POST", pathLease, bytes.NewReader(body))
		if token != "" {
			req.Header.Set(fleetTokenHeader, token)
		}
		rec := httptest.NewRecorder()
		h(rec, req)
		return rec.Code
	}
	if code := send(""); code != http.StatusUnauthorized {
		t.Fatalf("tokenless request: status %d, want 401", code)
	}
	if code := send("wrong"); code != http.StatusUnauthorized {
		t.Fatalf("wrong-token request: status %d, want 401", code)
	}
	if got := c.authRejected.Value(); got != 2 {
		t.Fatalf("authRejected counter = %d, want 2", got)
	}
	// The right token reaches the handler (403: unknown worker — auth
	// passed, registration is a separate concern).
	if code := send("hunter2"); code != http.StatusForbidden {
		t.Fatalf("authed request: status %d, want 403 from the handler", code)
	}
}

// TestDetectionDedupGauges: merged detections feed the
// (oracle, fingerprint)-keyed dedup gauges — every detection of a
// completed campaign is counted exactly once as unique or duplicate,
// and both gauges are exported on /metrics.
func TestDetectionDedupGauges(t *testing.T) {
	cfg := testCampaign(8)
	cfg.Bugs = bugs.All()
	c, err := NewCoordinator(CoordinatorConfig{Campaign: cfg, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	w1 := register(t, c)
	for {
		l := lease(t, c, w1)
		if l.Done {
			break
		}
		if l.Shard == nil {
			t.Fatal("coordinator idle with shards outstanding")
		}
		if resp, code := uploadShard(t, c, w1, *l.Shard); code != 200 || !resp.Accepted {
			t.Fatalf("upload: code %d resp %+v", code, resp)
		}
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var detections int
	for _, v := range res.Verdicts {
		if v.Kind == difftest.VerdictDetection {
			detections++
		}
	}
	if detections == 0 {
		t.Fatal("campaign produced no detections; the dedup gauges are untested")
	}
	c.mu.Lock()
	unique, dup := len(c.seenDet), c.dupDet
	c.mu.Unlock()
	if unique+int(dup) != detections {
		t.Fatalf("dedup gauges count %d unique + %d duplicate, want %d total detections",
			unique, dup, detections)
	}
	// A repeated key is a duplicate, not a second unique.
	c.mu.Lock()
	before := len(c.seenDet)
	c.countDetection("difftest/ariths/0000000000000001")
	c.countDetection("difftest/ariths/0000000000000001")
	unique, dup = len(c.seenDet), c.dupDet
	c.mu.Unlock()
	if unique != before+1 || dup != 1 {
		t.Fatalf("repeated key: %d unique (+%d) and %d duplicates, want +1/1", unique, unique-before, dup)
	}
	var buf bytes.Buffer
	if err := c.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ratte_fleet_detections_unique", "ratte_fleet_detections_duplicate"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("/metrics output missing %s", name)
		}
	}
}

// TestCoordinatorLedgerPinsPartitioning: a coordinator resumed over a
// ledger partitions exactly as its predecessor did — even against a
// conflicting ShardSize flag — resumes its counters strictly above
// every issued value, and finishes to the serial report.
func TestCoordinatorLedgerPinsPartitioning(t *testing.T) {
	cfg := testCampaign(12)
	want, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "fleet.jsonl")
	lpath := filepath.Join(dir, "fleet.ledger")

	jcfg := cfg
	j, err := difftest.CreateJournal(jpath, jcfg)
	if err != nil {
		t.Fatal(err)
	}
	jcfg.Journal = j
	c1, err := NewCoordinator(CoordinatorConfig{Campaign: jcfg, ShardSize: 4, LedgerPath: lpath})
	if err != nil {
		t.Fatal(err)
	}
	w1 := register(t, c1)
	l := lease(t, c1, w1)
	if resp, code := uploadShard(t, c1, w1, *l.Shard); code != 200 || !resp.Accepted {
		t.Fatalf("upload: code %d resp %+v", code, resp)
	}
	maxEpoch := l.Shard.Epoch
	if err := c1.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, resumed, err := difftest.OpenJournalForResume(jpath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 4 {
		t.Fatalf("journal resumed %d verdicts, want 4", len(resumed))
	}
	rcfg := cfg
	rcfg.Journal = j2
	rcfg.Resumed = resumed
	// A conflicting ShardSize must lose to the ledger's recorded one.
	c2, err := NewCoordinator(CoordinatorConfig{
		Campaign: rcfg, ShardSize: 5, LedgerPath: lpath, ResumeLedger: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c2.shardSize != 4 {
		t.Fatalf("resumed shard size %d, want the ledger's 4", c2.shardSize)
	}
	if c2.nextEpoch < maxEpoch {
		t.Fatalf("resumed nextEpoch %d below issued epoch %d", c2.nextEpoch, maxEpoch)
	}
	if c2.nextWorker < 1 {
		t.Fatalf("resumed nextWorker %d, want >= 1", c2.nextWorker)
	}
	w2 := register(t, c2)
	if w2 == w1 {
		t.Fatalf("resumed coordinator re-issued worker id %s", w2)
	}
	for {
		l := lease(t, c2, w2)
		if l.Done {
			break
		}
		if l.Shard == nil {
			t.Fatal("resumed coordinator idle with shards outstanding")
		}
		if l.Shard.ID == 0 {
			t.Fatal("resumed coordinator re-leased the journaled shard")
		}
		if l.Shard.Epoch <= maxEpoch {
			t.Fatalf("resumed lease epoch %d not above pre-crash %d", l.Shard.Epoch, maxEpoch)
		}
		if resp, code := uploadShard(t, c2, w2, *l.Shard); code != 200 || !resp.Accepted {
			t.Fatalf("resume upload: code %d resp %+v", code, resp)
		}
	}
	res, err := c2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	if a, b := difftest.ReportText(want), difftest.ReportText(res); a != b {
		t.Fatalf("ledger-resumed report differs from serial:\n--- serial\n%s--- resumed\n%s", a, b)
	}
}

// TestWorkerSpoolReplay: a worker restarted with a spool holding an
// unacknowledged shard re-uploads it before leasing new work — the
// delivery a crash-before-ack lost — and the campaign still finishes
// to the serial report with no seed run twice by this worker.
func TestWorkerSpoolReplay(t *testing.T) {
	cfg := testCampaign(8)
	want, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The "previous life" of the worker: shard 0 completed and spooled,
	// but the acknowledgement never landed.
	fp, err := difftest.CampaignFingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := difftest.RunCampaignRange(context.Background(), cfg, 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := encodeVerdicts(vs)
	if err != nil {
		t.Fatal(err)
	}
	spoolPath := filepath.Join(t.TempDir(), "worker.spool")
	sp, _, err := openSpool(spoolPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.add(spoolEntry{Shard: 0, Epoch: 7, First: 0, Count: 4, Body: body}); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(CoordinatorConfig{Campaign: cfg, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: "http://" + c.Addr(),
		Campaign:    cfg,
		Workers:     1,
		SpoolPath:   spoolPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpoolReplayed != 1 {
		t.Fatalf("worker replayed %d spool entries, want 1", stats.SpoolReplayed)
	}
	if stats.Shards != 2 || stats.Verdicts != 8 {
		t.Fatalf("worker stats %+v, want 2 shards / 8 verdicts (replay + lease)", stats)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := difftest.ReportText(want), difftest.ReportText(res); a != b {
		t.Fatalf("spool-replay report differs from serial:\n--- serial\n%s--- fleet\n%s", a, b)
	}

	// The replay was acknowledged: a second restart has nothing pending.
	sp2, pending, err := openSpool(spoolPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if len(pending) != 0 {
		t.Fatalf("spool still holds %d entries after acknowledged replay", len(pending))
	}
}
