package difftest_test

import (
	"runtime"
	"testing"
	"time"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
)

// TestParallelCampaignMatchesSerial: the parallel runner must produce
// the same detections as the serial one — determinism regardless of
// worker count.
func TestParallelCampaignMatchesSerial(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: 60,
		Size:     25,
		Seed:     4242,
		Bugs:     bugs.Only(bugs.RemoveDeadValuesCall),
	}
	serial, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := difftest.RunCampaignParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Programs != parallel.Programs {
		t.Errorf("programs: serial %d, parallel %d", serial.Programs, parallel.Programs)
	}
	if len(serial.Detections) != len(parallel.Detections) {
		t.Fatalf("detections: serial %d, parallel %d", len(serial.Detections), len(parallel.Detections))
	}
	for i := range serial.Detections {
		if serial.Detections[i].Seed != parallel.Detections[i].Seed ||
			serial.Detections[i].Oracle != parallel.Detections[i].Oracle {
			t.Errorf("detection %d differs: serial (%d, %s) parallel (%d, %s)",
				i, serial.Detections[i].Seed, serial.Detections[i].Oracle,
				parallel.Detections[i].Seed, parallel.Detections[i].Oracle)
		}
	}
	for o, n := range serial.ByOracle {
		if parallel.ByOracle[o] != n {
			t.Errorf("oracle %s: serial %d, parallel %d", o, n, parallel.ByOracle[o])
		}
	}
}

// TestParallelStopAtFirstReportsInOrderDetection: with StopAtFirst the
// parallel runner reports the same (seed-order) first detection as the
// serial runner would.
func TestParallelStopAtFirstReportsInOrderDetection(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset:      "ariths",
		Programs:    80,
		Size:        25,
		Seed:        515,
		Bugs:        bugs.Only(bugs.RemoveDeadValuesCall),
		StopAtFirst: true,
	}
	serial, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := difftest.RunCampaignParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Detections) == 0 {
		t.Skip("bug 3 not hit in this budget")
	}
	if len(parallel.Detections) != 1 {
		t.Fatalf("parallel reported %d detections", len(parallel.Detections))
	}
	if parallel.Detections[0].Seed != serial.Detections[0].Seed {
		t.Errorf("first detection seed: serial %d, parallel %d",
			serial.Detections[0].Seed, parallel.Detections[0].Seed)
	}
}

// TestParallelWithOneWorkerDelegates exercises the fallback path.
func TestParallelWithOneWorkerDelegates(t *testing.T) {
	cfg := difftest.CampaignConfig{Preset: "ariths", Programs: 5, Size: 10, Seed: 1}
	res, err := difftest.RunCampaignParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Programs != 5 {
		t.Errorf("programs = %d", res.Programs)
	}
}

// TestSerialCampaignStartsNoGoroutine: with one worker the engine runs
// every unit on the caller's goroutine — no pool, no channels. A poller
// samples runtime.NumGoroutine during the run; it must never see more
// than the pre-run count plus itself. The same poller must see the
// pool of a two-worker run, or it proves nothing.
func TestSerialCampaignStartsNoGoroutine(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset: "ariths", Programs: 40, Size: 16, Seed: 97,
		Bugs: bugs.Only(bugs.RemoveDeadValuesCall),
	}
	peakDuring := func(run func()) int {
		stop := make(chan struct{})
		peak := make(chan int)
		go func() {
			most := 0
			for {
				if n := runtime.NumGoroutine(); n > most {
					most = n
				}
				select {
				case <-stop:
					peak <- most
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
		}()
		run()
		close(stop)
		return <-peak
	}
	runWith := func(workers int) func() {
		return func() {
			if _, err := difftest.RunCampaignParallel(cfg, workers); err != nil {
				t.Error(err)
			}
		}
	}
	for _, workers := range []int{0, 1} {
		before := runtime.NumGoroutine()
		if peak := peakDuring(runWith(workers)); peak > before+1 {
			t.Errorf("workers=%d: %d goroutines during the run, want at most %d", workers, peak, before+1)
		}
	}
	before := runtime.NumGoroutine()
	if peak := peakDuring(runWith(2)); peak <= before+1 {
		t.Errorf("poller saw no pool goroutines in a workers=2 run (peak %d, before %d)", peak, before)
	}
}
