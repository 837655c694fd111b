// End-to-end fleet observability tests: a real coordinator and real
// workers over localhost HTTP, with the merged coverage union compared
// against the serial engine's, the snapshot-merged counters compared
// against a serial campaign's registry, and the /status and /metrics
// dashboards scraped like a monitoring system would.
package fleet_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
	"ratte/internal/fleet"
	"ratte/internal/telemetry"
)

// TestFleetCoverageObservability is the observability tentpole's
// contract in one scenario: the fleet's merged coverage union is
// exactly the serial engine's, the coordinator's snapshot-merged
// campaign counters are exactly a serial run's, the merged report is
// byte-identical (coverage stays observation-only through the fleet
// path), and the /status + /metrics + event-log surfaces describe the
// run truthfully.
func TestFleetCoverageObservability(t *testing.T) {
	base := difftest.CampaignConfig{
		Preset: "ariths", Programs: 30, Size: 14, Seed: 97,
		Bugs: bugs.Only(bugs.RemoveDeadValuesCall),
	}

	// Serial reference, instrumented the same way.
	serialCfg := base
	serialCov := difftest.NewCampaignCoverage(nil)
	serialCfg.Coverage = serialCov
	serialReg := telemetry.NewRegistry()
	serialCfg.Telemetry = difftest.NewCampaignTelemetry(serialReg)
	want, err := difftest.RunCampaign(serialCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet run: coverage on, event logs for both roles into one file.
	events := filepath.Join(t.TempDir(), "fleet-events.jsonl")
	fleetCfg := base
	fleetCov := difftest.NewCampaignCoverage(nil)
	fleetCfg.Coverage = fleetCov
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Campaign: fleetCfg, ShardSize: 5, EventLogPath: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = fleet.RunWorker(context.Background(), fleet.WorkerConfig{
				Coordinator:  "http://" + coord.Addr(),
				Campaign:     fleetCfg,
				Workers:      1,
				EventLogPath: events,
			})
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Coverage is observation-only through the fleet path too.
	if a, b := difftest.ReportText(want), difftest.ReportText(got); a != b {
		t.Fatalf("fleet report differs from serial:\n--- serial\n%s--- fleet\n%s", a, b)
	}
	// The merged union is exactly the serial union.
	if !reflect.DeepEqual(serialCov.Summary(), fleetCov.Summary()) {
		t.Fatalf("fleet coverage union differs from serial:\nserial: %v\nfleet:  %v",
			serialCov.Summary(), fleetCov.Summary())
	}
	if coord.Coverage() != fleetCov {
		t.Fatal("Coordinator.Coverage() is not the configured accumulator")
	}
	if fleetCov.Sites() == 0 {
		t.Fatal("fleet campaign observed no coverage sites")
	}

	// Snapshot-merged campaign counters equal the serial run's: the
	// per-shard worker deltas sum to the whole, and are counted exactly
	// once each.
	merged := coord.Registry().Counters()
	for series, n := range serialReg.Counters() {
		if n == 0 || !strings.HasPrefix(series, "ratte_campaign_") {
			continue
		}
		if merged[series] != n {
			t.Errorf("merged counter %s = %d, serial = %d", series, merged[series], n)
		}
	}
	// The fleet-wide per-site counters are the union, series for series.
	var hitSum uint64
	for series, n := range merged {
		if rest, ok := strings.CutPrefix(series, `ratte_coverage_hits_total{site="`); ok {
			site := strings.TrimSuffix(rest, `"}`)
			if wantN := serialCov.Summary()[site]; wantN != n {
				t.Errorf("site %s: fleet %d, serial %d", site, n, wantN)
			}
			hitSum += n
		}
	}
	if hitSum != fleetCov.Total() {
		t.Errorf("per-site counter sum %d != union total %d", hitSum, fleetCov.Total())
	}

	// /status JSON.
	var st fleet.Status
	resp, err := http.Get("http://" + coord.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Merged != base.Programs {
		t.Errorf("/status merged = %d, want %d", st.Merged, base.Programs)
	}
	if st.ShardsDone != 6 {
		t.Errorf("/status shards done = %d, want 6", st.ShardsDone)
	}
	if len(st.Workers) == 0 {
		t.Error("/status lists no workers")
	}
	if st.CoverageSites != fleetCov.Sites() {
		t.Errorf("/status coverage sites = %d, want %d", st.CoverageSites, fleetCov.Sites())
	}
	if len(st.Curve) != 6 || st.Curve[len(st.Curve)-1].Seeds != base.Programs {
		t.Errorf("/status coverage curve = %v, want 6 points ending at %d seeds", st.Curve, base.Programs)
	}
	var wv int
	for _, w := range st.Workers {
		wv += w.Verdicts
	}
	if wv != base.Programs {
		t.Errorf("/status worker verdicts sum to %d, want %d", wv, base.Programs)
	}

	// /status HTML dashboard.
	resp, err = http.Get("http://" + coord.Addr() + "/status?format=html")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "<table>") || !strings.Contains(string(page), "coverage:") {
		t.Errorf("/status html missing dashboard content:\n%s", page)
	}

	// /metrics exposition carries the fleet gauges and merged series.
	resp, err = http.Get("http://" + coord.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"ratte_fleet_verdicts_total 30",
		"ratte_fleet_coverage_sites",
		"ratte_fleet_spool_depth",
		"ratte_fleet_ledger_bytes",
		"ratte_fleet_shard_latency_ns_count 6",
		`ratte_coverage_hits_total{site="`,
		"ratte_campaign_seeds_done_total 30",
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	coord.DrainWorkers(5 * time.Second)
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}

	// The shared event log correlates both roles under one campaign id.
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	var campaigns, roles, kinds = map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e struct {
			Campaign string `json:"campaign"`
			Role     string `json:"role"`
			Event    string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("event log line %q: %v", line, err)
		}
		campaigns[e.Campaign] = true
		roles[e.Role] = true
		kinds[e.Event] = true
	}
	if len(campaigns) != 1 {
		t.Errorf("event log spans %d campaign ids, want 1", len(campaigns))
	}
	if !roles["coordinator"] || !roles["worker"] {
		t.Errorf("event log roles = %v, want both coordinator and worker", roles)
	}
	for _, k := range []string{"start", "register", "grant", "shard-start", "upload", "result", "splice", "done"} {
		if !kinds[k] {
			t.Errorf("event log missing %q events (have %v)", k, kinds)
		}
	}
}

// TestFleetStatusWithoutCoverage: a coverage-free campaign serves a
// /status document with the coverage block simply absent — no nil
// dereference, no phantom sites.
func TestFleetStatusWithoutCoverage(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset: "ariths", Programs: 8, Size: 14, Seed: 97,
		Bugs: bugs.Only(bugs.RemoveDeadValuesCall),
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Campaign: cfg, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fleet.RunWorker(context.Background(), fleet.WorkerConfig{ //nolint:errcheck // drained below
			Coordinator: "http://" + coord.Addr(), Campaign: cfg, Workers: 1,
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var st fleet.Status
	resp, err := http.Get("http://" + coord.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.CoverageSites != 0 || st.CoverageHits != 0 || len(st.Curve) != 0 {
		t.Errorf("coverage-free /status reports coverage: %+v", st)
	}
	if st.Merged != cfg.Programs {
		t.Errorf("/status merged = %d, want %d", st.Merged, cfg.Programs)
	}
	coord.DrainWorkers(5 * time.Second)
	wg.Wait()
}

// TestCoordinatorProgressLine checks the -progress line and the shard
// and worker gauges after a completed campaign: every seed merged,
// every shard done, the one worker live.
func TestCoordinatorProgressLine(t *testing.T) {
	cfg := difftest.CampaignConfig{Preset: "ariths", Programs: 12, Size: 14, Seed: 97}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Campaign: cfg, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fleet.RunWorker(context.Background(), fleet.WorkerConfig{ //nolint:errcheck // drained below
			Coordinator: "http://" + coord.Addr(), Campaign: cfg, Workers: 1,
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	line := coord.ProgressLine()
	want := regexp.MustCompile(`^fleet: 12/12 merged \| shards 3 done 0 leased 0 pending \| 1 workers \| [0-9]+\.[0-9]/sec$`)
	if !want.MatchString(line) {
		t.Errorf("progress line = %q, want match for %s", line, want)
	}
	snap := coord.Registry().Snapshot()
	for series, n := range map[string]int64{
		"ratte_fleet_shards_done":    3,
		"ratte_fleet_shards_leased":  0,
		"ratte_fleet_shards_pending": 0,
		"ratte_fleet_workers_live":   1,
	} {
		if snap[series] != n {
			t.Errorf("%s = %v, want %d", series, snap[series], n)
		}
	}
	coord.DrainWorkers(5 * time.Second)
	wg.Wait()
}
