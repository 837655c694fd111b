// The fleet coordinator: shard partitioning, HTTP lease service,
// crash-tolerant re-issue, and the deterministic seed-order merge.
package fleet

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ratte/internal/difftest"
	"ratte/internal/gen"
	"ratte/internal/ir"
	"ratte/internal/telemetry"
)

// Coordinator defaults.
const (
	// DefaultLeaseTTL is how long a worker may hold a shard without
	// completing it or heartbeating before the shard is re-issued.
	DefaultLeaseTTL = 15 * time.Second
	// defaultRetryMillis is the wait hint handed to workers when every
	// pending shard is leased out.
	defaultRetryMillis = 250
	// maxShardSize bounds auto-sized shards: big enough to amortize one
	// POST per shard, small enough that losing a worker forfeits little.
	maxShardSize = 256
	// defaultMaxUploadBytes caps one shard result body; anything larger
	// is a protocol violation (or an attack), not a campaign.
	defaultMaxUploadBytes = 1 << 30
	// maxControlBytes caps the small JSON control bodies (register,
	// lease, heartbeat).
	maxControlBytes = 1 << 20
	// serverReadTimeout bounds how long one request may take to arrive
	// in full — a stalled or byte-dripping client cannot pin a handler
	// past it.
	serverReadTimeout = 2 * time.Minute
)

// CoordinatorConfig configures a fleet coordinator.
type CoordinatorConfig struct {
	// Campaign is the full campaign to distribute. Its Journal (if any)
	// receives the merged verdict stream in seed order; its Resumed map
	// (if any) splices previously journaled verdicts in at their seeds,
	// exactly as the single-process engines do. StopAtFirst is not
	// supported (a fleet campaign always runs its full seed space).
	Campaign difftest.CampaignConfig
	// ShardSize is the seed-index range leased per request (0 = auto:
	// Programs/16 clamped to [1, 256], rounded up to a mutation-family
	// multiple in family mode).
	ShardSize int
	// LeaseTTL is the shard lease budget (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Registry receives the fleet gauges and is served at the
	// coordinator's /metrics (a fresh private registry when nil).
	Registry *telemetry.Registry
	// Token, when non-empty, is the fleet's shared secret: every
	// protocol request must carry it (workers send it automatically)
	// or is rejected with 401. The dashboard endpoints stay open.
	Token string
	// LedgerPath, when non-empty, persists the control plane's state
	// transitions (admissions, grants, completions, splices) to an
	// append-only shard ledger — the coordinator half of crash
	// recovery, alongside the campaign journal.
	LedgerPath string
	// ResumeLedger recovers coordinator state from an existing ledger
	// at LedgerPath: the shard partitioning is pinned to the recorded
	// one and the epoch/worker-id counters resume above every value
	// the pre-crash coordinator issued. A missing or empty ledger file
	// falls back to a fresh one (recovery then rests on the journal
	// alone).
	ResumeLedger bool
	// MaxUploadBytes caps one shard result body (0 = 1 GiB).
	MaxUploadBytes int64
	// EventLogPath, when non-empty, appends the coordinator's lifecycle
	// events (start, register, grant, reissue, result, splice, done) as
	// JSONL records keyed by the fleet-wide campaign id — the file a
	// worker's event log correlates with.
	EventLogPath string
}

// shardState is a shard's lifecycle position.
type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

// shard is one partition of the campaign's seed-index space.
type shard struct {
	id    int
	first int
	count int

	state   shardState
	epoch   int64
	holder  string
	expires time.Time
	// granted is when the shard's current lease was issued; zero for
	// shards never leased by this coordinator (resumed, or completed
	// by a spool replay). The lease→splice latency histogram observes
	// only shards with a grant.
	granted time.Time
	// verdicts is the completed shard's verdict stream, in seed order;
	// shards fully covered by the resume map are born done with their
	// recorded verdicts. Cleared once spliced into the merge.
	verdicts []difftest.Verdict
	// resumed marks a born-done shard: its verdicts are already in the
	// journal, so the merge must not append them again.
	resumed bool
}

// workerState tracks one registered worker.
type workerState struct {
	id        string
	host      string
	firstSeen time.Time
	lastSeen  time.Time
	toldDone  bool
	// shards/verdicts count this worker's accepted uploads; spoolDepth
	// is the worker's last snapshot-reported unacknowledged spool size.
	shards     int
	verdicts   int
	spoolDepth int
}

// Coordinator runs the fleet's control plane. Create with
// NewCoordinator, bind with Start, block on Wait.
type Coordinator struct {
	camp        difftest.CampaignConfig
	shardSize   int
	leaseTTL    time.Duration
	fingerprint string
	reg         *telemetry.Registry
	token       string
	maxUpload   int64

	srv *http.Server
	ln  net.Listener

	mu         sync.Mutex
	shards     []*shard
	pending    []int // shard ids awaiting (re-)issue, lowest first
	nextSplice int   // shards[:nextSplice] are merged
	merged     []difftest.Verdict
	workers    map[string]*workerState
	nextWorker int
	nextEpoch  int64
	draining   bool
	journalErr error
	start      time.Time
	led        *ledger
	ledBroken  bool
	// seenDet / dupDet back the detection-dedup gauges: detections
	// keyed by (oracle, program fingerprint) across all merged shards.
	seenDet map[string]struct{}
	dupDet  int64

	doneOnce sync.Once
	done     chan struct{}

	// cov is the campaign coverage accumulator handed in via
	// CampaignConfig.Coverage, folded from verdict summaries at splice
	// time (nil when the campaign runs without coverage). It is moved
	// off the config copy so Wait's AssembleResult does not fold the
	// same summaries a second time.
	cov *difftest.CampaignCoverage
	// covCurve is the coverage growth curve: one point per splice,
	// rendered by /status.
	covCurve []CoveragePoint
	// covVec is the fleet-wide per-site hit counter, fed from accepted
	// shard snapshots (workers report coverage off-registry, so their
	// snapshot Counters never include these series themselves).
	covVec  *telemetry.CounterVec
	events  *eventLog
	ledPath string

	verdictsTotal *telemetry.Counter
	reissued      *telemetry.Counter
	duplicates    *telemetry.Counter
	rejected      *telemetry.Counter
	authRejected  *telemetry.Counter
	oversize      *telemetry.Counter
	tornUploads   *telemetry.Counter
	ledgerErrs    *telemetry.Counter
	shardLatency  *telemetry.Histogram
}

// NewCoordinator partitions the campaign into shards and prepares the
// control plane. The campaign's verdict-relevant configuration is
// fingerprinted once; workers registering with a different fingerprint
// are rejected.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	camp := cfg.Campaign
	if camp.Programs <= 0 {
		return nil, errors.New("fleet: campaign has no programs")
	}
	if camp.StopAtFirst {
		return nil, errors.New("fleet: StopAtFirst is not supported in fleet mode")
	}
	// Stage telemetry is a worker-side concern: the coordinator never
	// runs pipeline stages, and the merge feeds no span recorder.
	camp.Telemetry = nil
	// Coverage moves off the config copy: the coordinator folds verdict
	// summaries into it at splice time, so leaving it on the config
	// would make Wait's AssembleResult double-count the union.
	cov := camp.Coverage
	camp.Coverage = nil
	fp, err := difftest.CampaignFingerprint(camp)
	if err != nil {
		return nil, err
	}

	// Recover the control plane from the shard ledger before sizing
	// anything: a restarted coordinator must partition exactly as its
	// predecessor did for shard ids (and in-flight worker leases) to
	// keep their meaning.
	var led *ledger
	var lst *ledgerState
	if cfg.LedgerPath != "" && cfg.ResumeLedger {
		led, lst, err = openLedgerForResume(cfg.LedgerPath, fp)
		if err != nil {
			return nil, err
		}
	}

	size := cfg.ShardSize
	if lst != nil {
		size = lst.shardSize
	} else {
		if size <= 0 {
			size = camp.Programs / 16
			if size < 1 {
				size = 1
			}
			if size > maxShardSize {
				size = maxShardSize
			}
		}
		if camp.FamilySize > 1 {
			// Align shards to mutation-family boundaries: a family's base
			// program is generated from its first seed, so a family split
			// across shards would change which program its members test.
			if rem := size % camp.FamilySize; rem != 0 {
				size += camp.FamilySize - rem
			}
		}
	}

	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	maxUpload := cfg.MaxUploadBytes
	if maxUpload <= 0 {
		maxUpload = defaultMaxUploadBytes
	}

	c := &Coordinator{
		camp:        camp,
		shardSize:   size,
		leaseTTL:    ttl,
		fingerprint: string(fp),
		reg:         reg,
		token:       cfg.Token,
		maxUpload:   maxUpload,
		cov:         cov,
		ledPath:     cfg.LedgerPath,
		workers:     make(map[string]*workerState),
		seenDet:     make(map[string]struct{}),
		done:        make(chan struct{}),
		start:       time.Now(),
	}
	if cfg.EventLogPath != "" {
		ev, everr := openEventLog(cfg.EventLogPath, "coordinator", fp)
		if everr != nil {
			return nil, everr
		}
		c.events = ev
	}
	if lst != nil {
		// Epoch and worker-id counters resume strictly above every value
		// the pre-crash coordinator issued, so a stale pre-crash lease
		// can never alias a post-restart one.
		c.nextEpoch, c.nextWorker = lst.nextEpoch, lst.nextWorker
	}
	for first := 0; first < camp.Programs; first += size {
		count := size
		if first+count > camp.Programs {
			count = camp.Programs - first
		}
		s := &shard{id: len(c.shards), first: first, count: count}
		if vs, ok := resumedShard(&camp, first, count); ok {
			s.state, s.verdicts, s.resumed = shardDone, vs, true
		} else {
			c.pending = append(c.pending, s.id)
		}
		c.shards = append(c.shards, s)
	}
	if cfg.LedgerPath != "" && led == nil {
		led, err = createLedger(cfg.LedgerPath, fp, size, camp.Programs)
		if err != nil {
			return nil, err
		}
	}
	c.led = led
	c.registerMetrics()
	// Resumed detections re-enter the dedup gauges, so a restarted
	// coordinator reports the same unique/duplicate split an
	// uninterrupted one would.
	for _, s := range c.shards {
		if !s.resumed {
			continue
		}
		for _, v := range s.verdicts {
			if v.Kind == difftest.VerdictDetection {
				c.countDetection(detectionKey(&c.camp, v))
			}
		}
	}
	c.events.emit("start", "", -1, 0,
		fmt.Sprintf("%d programs, %d shards of %d", camp.Programs, len(c.shards), size))
	c.mu.Lock()
	c.splice()
	c.mu.Unlock()
	return c, nil
}

// CoveragePoint is one sample of the campaign's coverage growth curve:
// after Seeds merged seeds, the union held Sites distinct sites. The
// coordinator records one point per spliced shard; /status renders the
// curve.
type CoveragePoint struct {
	Seeds int `json:"seeds"`
	Sites int `json:"sites"`
}

// Coverage returns the campaign coverage accumulator the coordinator
// folds merged verdict summaries into (nil when the campaign runs
// without coverage).
func (c *Coordinator) Coverage() *difftest.CampaignCoverage { return c.cov }

// splitSeries splits a Prometheus series key (`name` or
// `name{labels}`) back into its name and pre-rendered label string —
// the inverse of the rendering telemetry.Registry.Counters uses.
func splitSeries(s string) (name, labels string) {
	i := strings.IndexByte(s, '{')
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSuffix(s[i+1:], "}")
}

// applySnapshot merges one accepted shard's observability sidecar into
// the coordinator: the worker's per-shard telemetry delta is added
// series-by-series to the coordinator registry, the shard's coverage
// union feeds the fleet-wide per-site counter vec, and the worker's
// spool depth is recorded. Called under c.mu, and only from the upload
// that transitions the shard pending→done — so a spool-replayed
// duplicate body can never double-count.
func (c *Coordinator) applySnapshot(snap *shardSnapshot, ws *workerState) {
	if snap == nil {
		return
	}
	if ws != nil {
		ws.spoolDepth = snap.SpoolDepth
	}
	for key, n := range snap.Counters {
		if n == 0 {
			continue
		}
		name, labels := splitSeries(key)
		c.reg.CounterWith(name, labels,
			"merged from accepted worker shard snapshots").Add(n)
	}
	for site, n := range snap.Coverage {
		if n == 0 {
			continue
		}
		c.covVec.Add(site, n)
	}
}

// detectionKey is the cross-shard dedup key of one detection verdict:
// the oracle joined with the detected program's ir.Fingerprint. Plan
// mode records the fingerprint in the verdict; elsewhere the program
// is regenerated from its seed (cheap, and detections are rare). In
// family mode the seed regenerates the family's unmutated program —
// a deliberate approximation: the gauges are telemetry, the merged
// report is untouched either way.
func detectionKey(camp *difftest.CampaignConfig, v difftest.Verdict) string {
	fpr := v.Program
	if fpr == 0 {
		if p, err := gen.Generate(gen.Config{Preset: camp.Preset, Size: camp.Size, Seed: v.Seed}); err == nil {
			fpr = ir.Fingerprint(p.Module)
		} else {
			fpr = uint64(v.Seed)
		}
	}
	return fmt.Sprintf("%s/%016x", v.Oracle, fpr)
}

// countDetection folds one detection key into the dedup gauges.
// Callers outside NewCoordinator hold c.mu.
func (c *Coordinator) countDetection(key string) {
	if _, seen := c.seenDet[key]; seen {
		c.dupDet++
		return
	}
	c.seenDet[key] = struct{}{}
}

// ledgerAppend records one control-plane event, degrading (once, with
// a counter) instead of failing the campaign when the ledger cannot be
// written: the journal, not the ledger, is authoritative for results.
// Called under c.mu.
func (c *Coordinator) ledgerAppend(e ledgerEntry) {
	if c.led == nil || c.ledBroken {
		return
	}
	if err := c.led.append(e); err != nil {
		c.ledBroken = true
		c.ledgerErrs.Inc()
	}
}

// resumedShard returns the shard's verdicts from the campaign's resume
// map when every seed of the range is already verdicted. A partially
// resumed shard re-runs whole: verdicts depend only on (config, seed),
// so the re-run reproduces the journaled prefix exactly.
func resumedShard(camp *difftest.CampaignConfig, first, count int) ([]difftest.Verdict, bool) {
	if len(camp.Resumed) < count {
		return nil, false
	}
	vs := make([]difftest.Verdict, 0, count)
	for i := 0; i < count; i++ {
		v, ok := camp.Resumed[camp.Seed+int64(first+i)]
		if !ok {
			return nil, false
		}
		vs = append(vs, v)
	}
	return vs, true
}

// registerMetrics exposes the fleet gauges on the coordinator's
// registry: live workers, shard queue states, merged-verdict count and
// the aggregate campaign throughput.
func (c *Coordinator) registerMetrics() {
	c.verdictsTotal = c.reg.Counter("ratte_fleet_verdicts_total",
		"verdicts received from accepted shard results")
	c.reissued = c.reg.Counter("ratte_fleet_shards_reissued_total",
		"shard leases that expired and were re-issued")
	c.duplicates = c.reg.Counter("ratte_fleet_results_duplicate_total",
		"shard results discarded because the shard was already complete")
	c.rejected = c.reg.Counter("ratte_fleet_registrations_rejected_total",
		"worker registrations rejected for a mismatched campaign fingerprint")
	c.authRejected = c.reg.Counter("ratte_fleet_auth_rejected_total",
		"requests rejected for a missing or mismatched fleet token")
	c.oversize = c.reg.Counter("ratte_fleet_requests_oversize_total",
		"requests rejected for exceeding the body-size cap")
	c.tornUploads = c.reg.Counter("ratte_fleet_uploads_torn_total",
		"shard uploads rejected as undecodable (torn gzip or corrupt JSONL)")
	c.ledgerErrs = c.reg.Counter("ratte_fleet_ledger_errors_total",
		"shard-ledger append failures (the ledger degrades, the campaign continues)")
	c.shardLatency = c.reg.Histogram("ratte_fleet_shard_latency_ns",
		"end-to-end shard latency from lease grant to merge splice")
	c.reg.GaugeFunc("ratte_fleet_spool_depth",
		"unacknowledged worker spool entries, summed over last-reported snapshots",
		func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			var n int64
			for _, w := range c.workers {
				n += int64(w.spoolDepth)
			}
			return n
		})
	c.reg.GaugeFunc("ratte_fleet_ledger_bytes",
		"size of the shard ledger file on disk (0 without a ledger)",
		func() int64 {
			if c.ledPath == "" {
				return 0
			}
			st, err := os.Stat(c.ledPath)
			if err != nil {
				return 0
			}
			return st.Size()
		})
	c.covVec = c.reg.CounterVec("ratte_coverage_hits_total", "site",
		"semantic-coverage hits per site, merged from accepted worker shard snapshots")
	if c.cov != nil {
		c.reg.GaugeFunc("ratte_fleet_coverage_sites",
			"distinct semantic-coverage sites in the merged campaign union",
			func() int64 { return int64(c.cov.Sites()) })
		c.reg.GaugeFunc("ratte_fleet_coverage_hits",
			"total semantic-coverage hits in the merged campaign union",
			func() int64 { return int64(c.cov.Total()) })
	}
	c.reg.GaugeFunc("ratte_fleet_detections_unique",
		"distinct merged detections, keyed by (oracle, program ir.Fingerprint) across shards",
		func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.seenDet))
		})
	c.reg.GaugeFunc("ratte_fleet_detections_duplicate",
		"merged detections whose (oracle, program ir.Fingerprint) was already seen in another shard",
		func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.dupDet
		})
	counts := func(st shardState) int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		var n int64
		for _, s := range c.shards {
			if s.state == st {
				n++
			}
		}
		return n
	}
	c.reg.GaugeFunc("ratte_fleet_shards_pending", "shards awaiting a lease",
		func() int64 { return counts(shardPending) })
	c.reg.GaugeFunc("ratte_fleet_shards_leased", "shards currently leased to workers",
		func() int64 { return counts(shardLeased) })
	c.reg.GaugeFunc("ratte_fleet_shards_done", "shards completed (merged or awaiting merge)",
		func() int64 { return counts(shardDone) })
	c.reg.GaugeFunc("ratte_fleet_workers_live", "workers seen within two lease TTLs",
		func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			cutoff := time.Now().Add(-2 * c.leaseTTL)
			var n int64
			for _, w := range c.workers {
				if w.lastSeen.After(cutoff) {
					n++
				}
			}
			return n
		})
	c.reg.GaugeFunc("ratte_fleet_workers_registered", "workers ever registered",
		func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.workers))
		})
	c.reg.GaugeFunc("ratte_fleet_programs_total", "campaign seed-space size",
		func() int64 { return int64(c.camp.Programs) })
	c.reg.GaugeFunc("ratte_fleet_programs_per_sec", "aggregate merged throughput since start",
		func() int64 {
			elapsed := time.Since(c.start).Seconds()
			if elapsed <= 0 {
				return 0
			}
			return int64(float64(c.verdictsTotal.Value()) / elapsed)
		})
}

// Start binds the coordinator's HTTP service to addr (host:port; port
// 0 picks a free port). The mux serves the fleet protocol plus the
// fleet dashboard: Prometheus /metrics and JSON /debug/vars over the
// coordinator's registry.
func (c *Coordinator) Start(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc(pathRegister, c.requireToken(c.handleRegister))
	mux.HandleFunc(pathLease, c.requireToken(c.handleLease))
	mux.HandleFunc(pathHeartbeat, c.requireToken(c.handleHeartbeat))
	mux.HandleFunc(pathResult, c.requireToken(c.handleResult))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.reg.WritePrometheus(w) //nolint:errcheck // best-effort scrape
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		c.reg.WriteJSON(w) //nolint:errcheck // best-effort scrape
	})
	mux.HandleFunc("/status", c.handleStatus)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleet: listen %s: %w", addr, err)
	}
	c.ln = ln
	c.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       serverReadTimeout,
	}
	go c.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return nil
}

// requireToken gates a fleet protocol handler behind the shared fleet
// secret when one is configured. The dashboard endpoints (/metrics,
// /debug/vars) are deliberately not gated.
func (c *Coordinator) requireToken(h http.HandlerFunc) http.HandlerFunc {
	if c.token == "" {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		got := r.Header.Get(fleetTokenHeader)
		if subtle.ConstantTimeCompare([]byte(got), []byte(c.token)) != 1 {
			c.authRejected.Inc()
			http.Error(w, "fleet: missing or invalid fleet token", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

// Addr returns the bound listen address (useful with port 0).
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Registry returns the coordinator's metrics registry (the one behind
// its /metrics endpoint).
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// Wait blocks until every shard is merged or ctx is cancelled, and
// returns the campaign result assembled from the merged verdict
// stream. On cancellation the coordinator freezes: it stops leasing
// shards and discards late results, so the returned partial result
// covers exactly the contiguous merged prefix — every verdict of which
// is already in the journal — and the run is resumable. A completed
// merge renders (via difftest.ReportText) byte-identical to a
// single-process serial run of the same campaign.
func (c *Coordinator) Wait(ctx context.Context) (*difftest.CampaignResult, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
	}
	c.mu.Lock()
	c.draining = true
	complete := c.nextSplice == len(c.shards)
	merged := c.merged
	jerr := c.journalErr
	c.mu.Unlock()

	res := difftest.AssembleResult(c.camp, merged)
	switch {
	case jerr != nil:
		return res, fmt.Errorf("fleet: journal: %w", jerr)
	case !complete:
		return res, ctx.Err()
	}
	return res, nil
}

// DrainWorkers waits (up to timeout) until every registered worker has
// been told the campaign is done — workers poll the lease endpoint
// while idle, so after a completed campaign this converges within one
// retry interval. It lets a caller keep the control plane up just long
// enough for a clean fleet-wide shutdown before Close.
func (c *Coordinator) DrainWorkers(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		drained := true
		for _, w := range c.workers {
			if !w.toldDone {
				drained = false
				break
			}
		}
		c.mu.Unlock()
		if drained {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Merged reports how many seeds are spliced into the merge so far.
func (c *Coordinator) Merged() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.merged)
}

// Close shuts the control plane down.
func (c *Coordinator) Close() error {
	c.closeLedger()
	c.events.Close() //nolint:errcheck // advisory log
	if c.srv == nil {
		return nil
	}
	return c.srv.Close()
}

// Kill simulates a coordinator crash for chaos tests: the control
// plane stops without draining — no done signals are sent, late
// results are not refused, the merge is simply abandoned wherever it
// stands. In-flight handlers get a short grace period to finish their
// journal/ledger appends (a handler that completed its splice before
// the crash is exactly a crash that happened a moment later), then
// the listener and every connection are torn down. The campaign is
// recovered by a new coordinator over the same journal and ledger.
func (c *Coordinator) Kill() error {
	defer c.closeLedger()
	defer c.events.Close() //nolint:errcheck // advisory log
	if c.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	c.srv.Shutdown(ctx) //nolint:errcheck // best-effort grace, Close is authoritative
	return c.srv.Close()
}

// closeLedger closes the shard ledger exactly once, under c.mu so it
// cannot race an in-flight handler's append.
func (c *Coordinator) closeLedger() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.led != nil {
		c.led.Close() //nolint:errcheck // shutdown; the ledger is advisory
		c.led = nil
	}
}

// ProgressLine renders a one-line fleet status for the -progress
// ticker: merged seeds, shard queue states, live workers, throughput.
func (c *Coordinator) ProgressLine() string {
	c.mu.Lock()
	var pending, leased, doneShards int
	for _, s := range c.shards {
		switch s.state {
		case shardPending:
			pending++
		case shardLeased:
			leased++
		case shardDone:
			doneShards++
		}
	}
	mergedSeeds := len(c.merged)
	cutoff := time.Now().Add(-2 * c.leaseTTL)
	var live int
	for _, w := range c.workers {
		if w.lastSeen.After(cutoff) {
			live++
		}
	}
	c.mu.Unlock()
	elapsed := time.Since(c.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(mergedSeeds) / elapsed
	}
	return fmt.Sprintf("fleet: %d/%d merged | shards %d done %d leased %d pending | %d workers | %.1f/sec",
		mergedSeeds, c.camp.Programs, doneShards, leased, pending, live, rate)
}

// handleRegister admits a worker — or rejects it with 409 when its
// campaign fingerprint differs from the coordinator's, the same check
// a journal resume applies to a mismatched config.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := c.readJSON(w, r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if string(req.Fingerprint) != c.fingerprint {
		c.rejected.Inc()
		http.Error(w, fmt.Sprintf("fleet: campaign config mismatch: worker %s, coordinator %s",
			req.Fingerprint, c.fingerprint), http.StatusConflict)
		return
	}
	c.mu.Lock()
	c.nextWorker++
	id := "w" + strconv.Itoa(c.nextWorker)
	host := req.Host
	if host == "" {
		host = r.RemoteAddr
	}
	now := time.Now()
	c.workers[id] = &workerState{id: id, host: host, firstSeen: now, lastSeen: now}
	c.ledgerAppend(ledgerEntry{Worker: &ledgerWorker{ID: id, Host: host}})
	shards := len(c.shards)
	c.mu.Unlock()
	c.events.emit("register", id, -1, 0, host)
	writeJSON(w, registerResponse{
		WorkerID:       id,
		Programs:       c.camp.Programs,
		Shards:         shards,
		LeaseTTLMillis: c.leaseTTL.Milliseconds(),
	})
}

// handleLease issues the lowest pending shard, re-queueing expired
// leases first. With nothing pending but shards still leased out it
// hands back a retry hint; once the campaign is merged (or the
// coordinator is draining) it reports done.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := c.readJSON(w, r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[req.WorkerID]
	if ws == nil {
		http.Error(w, "fleet: unknown worker (register first)", http.StatusForbidden)
		return
	}
	ws.lastSeen = time.Now()
	if c.draining || c.nextSplice == len(c.shards) {
		ws.toldDone = true
		writeJSON(w, leaseResponse{Done: true})
		return
	}
	c.sweepExpired()
	// Skip queue entries completed out of band (a spool replay can
	// finish a shard that was never leased by this coordinator).
	var s *shard
	for len(c.pending) > 0 {
		id := c.pending[0]
		c.pending = c.pending[1:]
		if c.shards[id].state == shardPending {
			s = c.shards[id]
			break
		}
	}
	if s == nil {
		writeJSON(w, leaseResponse{RetryMillis: defaultRetryMillis})
		return
	}
	c.nextEpoch++
	s.state, s.epoch, s.holder = shardLeased, c.nextEpoch, req.WorkerID
	s.granted = time.Now()
	s.expires = s.granted.Add(c.leaseTTL)
	c.ledgerAppend(ledgerEntry{Grant: &ledgerGrant{Shard: s.id, Epoch: s.epoch, Worker: req.WorkerID}})
	c.events.emit("grant", req.WorkerID, s.id, s.epoch,
		fmt.Sprintf("seeds [%d,%d)", s.first, s.first+s.count))
	writeJSON(w, leaseResponse{Shard: &ShardLease{
		ID: s.id, First: s.first, Count: s.count, Epoch: s.epoch,
	}})
}

// sweepExpired re-queues every leased shard whose lease has expired.
// Called under c.mu from the lease path — idle workers poll leases at
// the retry interval, so expiry is detected promptly without a
// dedicated timer goroutine.
func (c *Coordinator) sweepExpired() {
	now := time.Now()
	for _, s := range c.shards {
		if s.state == shardLeased && now.After(s.expires) {
			c.events.emit("reissue", s.holder, s.id, s.epoch, "lease expired")
			s.state, s.holder = shardPending, ""
			c.pending = append(c.pending, s.id)
			c.reissued.Inc()
		}
	}
	// Lowest shard first keeps the merge frontier moving.
	for i := 1; i < len(c.pending); i++ {
		for j := i; j > 0 && c.pending[j] < c.pending[j-1]; j-- {
			c.pending[j], c.pending[j-1] = c.pending[j-1], c.pending[j]
		}
	}
}

// handleHeartbeat renews a running shard's lease.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := c.readJSON(w, r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ws := c.workers[req.WorkerID]; ws != nil {
		ws.lastSeen = time.Now()
	}
	if req.ShardID < 0 || req.ShardID >= len(c.shards) {
		writeJSON(w, heartbeatResponse{Lost: true})
		return
	}
	s := c.shards[req.ShardID]
	if s.state != shardLeased || s.epoch != req.Epoch || s.holder != req.WorkerID {
		writeJSON(w, heartbeatResponse{Lost: true})
		return
	}
	s.expires = time.Now().Add(c.leaseTTL)
	writeJSON(w, heartbeatResponse{})
}

// handleResult ingests one completed shard: a gzip'd JSONL verdict
// stream, validated against the shard's exact seed range, then merged.
// Duplicates (a late worker returning a shard a re-issue already
// completed) are discarded — verdicts depend only on (config, seed),
// so whichever upload arrives first is byte-identical to any other.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	shardID, err := strconv.Atoi(q.Get("shard"))
	workerID := q.Get("worker")
	if err != nil || workerID == "" {
		http.Error(w, "fleet: result needs shard and worker query params", http.StatusBadRequest)
		return
	}
	// epoch is advisory (spool replays may carry a superseded one); the
	// shard's done-state, not the epoch, is what makes uploads idempotent.
	epoch, _ := strconv.ParseInt(q.Get("epoch"), 10, 64) //nolint:errcheck // optional param
	body := http.MaxBytesReader(w, r.Body, c.maxUpload)
	defer body.Close()
	vs, snap, err := decodeShard(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			c.oversize.Inc()
			http.Error(w, "fleet: shard result exceeds the upload size cap", http.StatusRequestEntityTooLarge)
			return
		}
		// A torn upload (connection dropped mid-gzip, corrupt JSONL)
		// leaves the lease exactly as it was: the shard re-arrives whole
		// or the lease expires and is re-issued.
		c.tornUploads.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Detection dedup keys may regenerate the detected program from its
	// seed; compute them before taking the coordinator lock.
	var detKeys []string
	for _, v := range vs {
		if v.Kind == difftest.VerdictDetection {
			detKeys = append(detKeys, detectionKey(&c.camp, v))
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if ws := c.workers[workerID]; ws != nil {
		ws.lastSeen = time.Now()
	}
	if c.draining {
		// The campaign completed or was cancelled: the merge is frozen
		// and the journal may already be closed. Tell the worker to stop
		// — and record it, since the worker exits on this flag without
		// another lease round.
		if ws := c.workers[workerID]; ws != nil {
			ws.toldDone = true
		}
		writeJSON(w, resultResponse{Accepted: false, Done: true})
		return
	}
	if shardID < 0 || shardID >= len(c.shards) {
		http.Error(w, "fleet: unknown shard", http.StatusBadRequest)
		return
	}
	s := c.shards[shardID]
	if s.state == shardDone {
		c.duplicates.Inc()
		c.events.emit("duplicate", workerID, shardID, epoch, "shard already complete")
		dupDone := c.nextSplice == len(c.shards)
		if ws := c.workers[workerID]; ws != nil && dupDone {
			// The worker exits on this Done flag without another lease
			// round; record that so DrainWorkers converges.
			ws.toldDone = true
		}
		writeJSON(w, resultResponse{Accepted: false, Done: dupDone})
		return
	}
	if len(vs) != s.count {
		http.Error(w, fmt.Sprintf("fleet: shard %d result has %d verdicts, want %d",
			shardID, len(vs), s.count), http.StatusBadRequest)
		return
	}
	for i := range vs {
		if want := c.camp.Seed + int64(s.first+i); vs[i].Seed != want {
			http.Error(w, fmt.Sprintf("fleet: shard %d verdict %d has seed %d, want %d",
				shardID, i, vs[i].Seed, want), http.StatusBadRequest)
			return
		}
	}
	s.state, s.verdicts, s.holder = shardDone, vs, ""
	c.verdictsTotal.Add(uint64(len(vs)))
	ws := c.workers[workerID]
	if ws != nil {
		ws.shards++
		ws.verdicts += len(vs)
	}
	// The snapshot merges exactly here — on the pending→done transition
	// — so replayed duplicate uploads (rejected above) never re-count.
	c.applySnapshot(snap, ws)
	for _, k := range detKeys {
		c.countDetection(k)
	}
	if epoch == 0 {
		epoch = s.epoch
	}
	c.events.emit("result", workerID, shardID, epoch,
		fmt.Sprintf("%d verdicts", len(vs)))
	c.ledgerAppend(ledgerEntry{Done: &ledgerDone{Shard: shardID, Epoch: epoch, Verdicts: len(vs)}})
	c.splice()
	done := c.nextSplice == len(c.shards)
	if c.journalErr != nil {
		// Unblock Wait so the caller sees the journal failure; the
		// partial merge up to the failed append remains valid.
		c.doneOnce.Do(func() { close(c.done) })
	}
	if ws := c.workers[workerID]; ws != nil && done {
		ws.toldDone = true
	}
	writeJSON(w, resultResponse{Accepted: true, Done: done})
}

// splice advances the merge frontier: completed shards are appended to
// the merged verdict stream — and the journal — strictly in shard
// (hence seed) order. Verdicts already present from a resumed journal
// are merged but not re-appended, mirroring the single-process resume
// path. Called under c.mu.
func (c *Coordinator) splice() {
	for c.nextSplice < len(c.shards) {
		s := c.shards[c.nextSplice]
		if s.state != shardDone {
			return
		}
		c.merged = append(c.merged, s.verdicts...)
		// The union folds from sequenced verdict summaries — the same
		// source the single-process engines fold from — so resumed shards
		// (whose verdicts carry their journaled summaries) reconstruct it
		// exactly, snapshots or not.
		for _, v := range s.verdicts {
			c.cov.AddSummary(v.Coverage)
		}
		if c.camp.Journal != nil && !s.resumed && c.journalErr == nil {
			for _, v := range s.verdicts {
				if _, ok := c.camp.Resumed[v.Seed]; ok {
					continue
				}
				if err := c.camp.Journal.Append(v); err != nil {
					c.journalErr = err
					break
				}
			}
		}
		s.verdicts = nil
		c.nextSplice++
		if !s.granted.IsZero() {
			c.shardLatency.ObserveDuration(time.Since(s.granted))
		}
		if c.cov != nil {
			c.covCurve = append(c.covCurve, CoveragePoint{Seeds: len(c.merged), Sites: c.cov.Sites()})
		}
		c.ledgerAppend(ledgerEntry{Splice: &ledgerSplice{Shard: s.id, Seeds: len(c.merged)}})
		c.events.emit("splice", "", s.id, s.epoch,
			fmt.Sprintf("%d/%d seeds merged", len(c.merged), c.camp.Programs))
	}
	c.doneOnce.Do(func() {
		c.events.emit("done", "", -1, 0,
			fmt.Sprintf("%d seeds merged", len(c.merged)))
		close(c.done)
	})
}

// readJSON decodes a small JSON control body (register, lease,
// heartbeat), capped at maxControlBytes.
func (c *Coordinator) readJSON(w http.ResponseWriter, r *http.Request, into any) error {
	body := http.MaxBytesReader(w, r.Body, maxControlBytes)
	defer body.Close()
	dec := json.NewDecoder(body)
	if err := dec.Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			c.oversize.Inc()
		}
		return fmt.Errorf("fleet: bad request body: %w", err)
	}
	return nil
}

// writeJSON encodes a response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort response write
}
