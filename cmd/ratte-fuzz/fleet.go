// Fleet modes of ratte-fuzz: -serve runs the campaign coordinator,
// -worker runs a shard worker against one. A localhost fleet:
//
//	ratte-fuzz -serve=:7777 -programs=100000 -preset=ariths &
//	ratte-fuzz -worker=http://127.0.0.1:7777 -preset=ariths &
//	ratte-fuzz -worker=http://127.0.0.1:7777 -preset=ariths &
//
// The coordinator prints the merged report on stdout when the last
// shard lands — byte-identical to the single-process run of the same
// flags — and serves fleet gauges on its own /metrics.
package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ratte/internal/difftest"
	"ratte/internal/faultinject"
	"ratte/internal/fleet"
)

// fleetServe runs the coordinator: partition the campaign, serve
// leases on o.serve, block until the merge completes (or SIGINT
// drains), and print the merged report.
func fleetServe(o options) {
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "ratte-fuzz:", err)
		os.Exit(1)
	}
	cfg, _, err := buildCampaign(o)
	if err != nil {
		fatal(err)
	}
	journal, err := openJournal(o, &cfg)
	if err != nil {
		fatal(err)
	}

	// The shard ledger rides alongside the journal by default: the pair
	// is what makes a SIGKILL'd coordinator resumable with -resume.
	ledger := o.fleetLedger
	if ledger == "" && o.journal != "" {
		ledger = o.journal + ".ledger"
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Campaign:     cfg,
		ShardSize:    o.shardSize,
		LeaseTTL:     o.leaseTTL,
		Token:        o.fleetToken,
		LedgerPath:   ledger,
		ResumeLedger: o.resume,
		EventLogPath: o.fleetEvents,
	})
	if err != nil {
		fatal(err)
	}
	if err := coord.Start(o.serve); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fleet coordinator on http://%s (dashboards at /metrics and /status)\n", coord.Addr())

	if o.progress > 0 {
		ticker := time.NewTicker(o.progress)
		progressDone := make(chan struct{})
		go func() {
			for {
				select {
				case <-ticker.C:
					fmt.Fprintln(os.Stderr, coord.ProgressLine())
				case <-progressDone:
					return
				}
			}
		}()
		defer func() { ticker.Stop(); close(progressDone) }()
	}

	// SIGINT/SIGTERM freeze the merge at the contiguous prefix: every
	// merged verdict is already journaled, so the run resumes with
	// -resume exactly like an interrupted single-process campaign.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := coord.Wait(ctx)
	elapsed := time.Since(start)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fatal(err)
	}
	coord.DrainWorkers(2 * time.Second)
	coord.Close() //nolint:errcheck // shutdown
	if journal != nil {
		if err := journal.Close(); err != nil {
			fatal(err)
		}
	}

	fmt.Print(difftest.ReportText(res))
	verdicted := len(res.Verdicts)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(verdicted) / elapsed.Seconds()
	}
	fmt.Fprintf(os.Stderr, "elapsed: %s (%d programs merged, %.1f/sec aggregate)\n",
		elapsed.Round(time.Millisecond), verdicted, rate)
	if cov := coord.Coverage(); cov != nil {
		fmt.Fprintf(os.Stderr, "coverage: %d sites, %d hits\n", cov.Sites(), cov.Total())
		if o.coverageDump != "" {
			if err := os.WriteFile(o.coverageDump, []byte(cov.Text()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if o.metricsDump != "" {
		if err := os.WriteFile(o.metricsDump, []byte(coord.Registry().PrometheusText()), 0o644); err != nil {
			fatal(err)
		}
	}
	if interrupted {
		fmt.Println("interrupted: partial results above")
		if o.journal != "" {
			fmt.Printf("journal flushed; continue with: -resume -journal=%s\n", o.journal)
		}
		os.Exit(130)
	}
}

// fleetWork runs a worker against the coordinator at o.workerOf. The
// campaign flags must match the coordinator's (the registration
// fingerprint enforces it); -programs is taken from the coordinator.
func fleetWork(o options) {
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "ratte-fuzz:", err)
		os.Exit(1)
	}
	cfg, _, err := buildCampaign(o)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -net-fault-rate puts the worker's whole wire behind the seeded
	// fault transport: refused connections, delays, injected 5xx, torn
	// bodies, duplicated deliveries. Results must not change — only the
	// retry counters do.
	var client *http.Client
	if o.netFaultRate > 0 {
		tr := faultinject.NewTransport(faultinject.NetSpec{
			Seed:  o.netFaultSeed,
			Rate:  o.netFaultRate,
			Delay: 5 * time.Millisecond,
		}, nil)
		client = &http.Client{Timeout: 60 * time.Second, Transport: tr}
		fmt.Fprintf(os.Stderr, "fleet worker: injecting network faults (rate %.2f, seed %d)\n", o.netFaultRate, o.netFaultSeed)
	}

	stats, err := fleet.RunWorker(ctx, fleet.WorkerConfig{
		Coordinator:   o.workerOf,
		Campaign:      cfg,
		Workers:       o.workers,
		Token:         o.fleetToken,
		UploadRetries: o.uploadRetries,
		SpoolPath:     o.spoolPath,
		EventLogPath:  o.fleetEvents,
		Client:        client,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "fleet worker %s: interrupted after %d shards\n", stats.WorkerID, stats.Shards)
			os.Exit(130)
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fleet worker %s: %d shards, %d verdicts (%d registrations, %d upload retries, %d spool replays)\n",
		stats.WorkerID, stats.Shards, stats.Verdicts, stats.Registrations, stats.UploadRetried, stats.SpoolReplayed)
}
