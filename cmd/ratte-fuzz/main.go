// Command ratte-fuzz drives fuzzing campaigns and regenerates the
// paper's evaluation artefacts:
//
//	ratte-fuzz -experiment=table2    # generator presets: validity rates
//	ratte-fuzz -experiment=table3    # bug-finding with injected defects
//	ratte-fuzz -experiment=table4    # MLIRSmith comparison
//	ratte-fuzz -experiment=throughput  # §4.2 generation-time comparison
//	ratte-fuzz -experiment=dol       # §4.2 DOL false-positive study
//
// or ad-hoc campaigns:
//
//	ratte-fuzz -preset=ariths -programs=500 -size=30 -bugs=7
//
// or phase-ordering campaigns, which test every program under N
// sampled legal pass plans instead of the fixed build configurations:
//
//	ratte-fuzz -fuzz-pipelines=16 -plan-seed=1 -programs=500
//
// Every mode honours -workers=N: experiment subcommands spread their
// per-program work (generation, classification, campaigns) across N
// goroutines and ad-hoc campaigns run on the pipelined parallel
// campaign engine. Results are deterministic for a given seed
// regardless of worker count — workers change only the wall-clock time,
// mirroring the paper's overnight runs on an 8-core laptop.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ratte"
	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/difftest"
	"ratte/internal/faultinject"
	"ratte/internal/gen"
	"ratte/internal/ir"
	"ratte/internal/mlirsmith"
	"ratte/internal/profiling"
	"ratte/internal/reduce"
	"ratte/internal/telemetry"
)

func main() {
	var o options
	fs := newFlagSet(&o)
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if err := checkFlags(fs, o); err != nil {
		fmt.Fprintln(os.Stderr, "ratte-fuzz:", err)
		os.Exit(2)
	}
	if o.coverageDump != "" {
		o.coverage = true
	}

	if o.workers > runtime.NumCPU() {
		// Once, to stderr: the pipelined engines cannot beat the CPU count,
		// they only add scheduling overhead past it.
		fmt.Fprintf(os.Stderr, "ratte-fuzz: warning: -workers=%d exceeds %d CPUs; extra workers add overhead without speedup\n",
			o.workers, runtime.NumCPU())
	}

	stopProfiling, err := profiling.StartProfiles(profiling.Options{
		CPUPath: o.cpuprofile, MemPath: o.memprofile,
		BlockPath: o.blockprofile, MutexPath: o.mutexprofile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ratte-fuzz:", err)
		os.Exit(1)
	}

	switch o.experiment {
	case "table2":
		table2(o.programs, o.size, o.seed, o.workers)
	case "table3":
		table3(o.programs, o.size, o.seed, o.workers)
	case "table4":
		table4(o.programs, o.size, o.seed, o.workers)
	case "throughput":
		throughput(o.programs, o.size, o.seed, o.workers)
	case "dol":
		dol(o.programs, o.size, o.seed, o.workers)
	case "":
		switch {
		case o.serve != "":
			fleetServe(o)
		case o.workerOf != "":
			fleetWork(o)
		default:
			adhoc(o)
		}
	default:
		fmt.Fprintln(os.Stderr, "ratte-fuzz: unknown experiment", o.experiment)
		os.Exit(1)
	}
	// Error paths above os.Exit directly and deliberately drop the
	// profile; a truncated profile of a failed run only misleads.
	if err := stopProfiling(); err != nil {
		fmt.Fprintln(os.Stderr, "ratte-fuzz:", err)
		os.Exit(1)
	}
}

// parallelMap evaluates fn(0..n-1) across the given number of worker
// goroutines and returns the results indexed by i — deterministic
// output order regardless of scheduling. workers <= 1 degenerates to a
// plain loop.
func parallelMap[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// classification is one program's Classify outcome (or a generation
// failure) from a parallel sweep.
type classification struct {
	cl  difftest.Classification
	err error
}

func tallyClassifications(cls []classification, what string) (compiled, ubFree int) {
	for _, c := range cls {
		if c.err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", what, c.err)
			os.Exit(1)
		}
		if c.cl.Compiled {
			compiled++
		}
		if c.cl.UBFree {
			ubFree++
		}
	}
	return compiled, ubFree
}

// table2 re-measures the paper's Table 2 claim: every Ratte-generated
// program (per preset) compiles and is UB-free.
func table2(programs, size int, seed int64, workers int) {
	fmt.Println("Table 2 — Ratte generators: dialects, target, validity")
	fmt.Printf("%-14s %-40s %-8s %-10s %-8s\n", "Name", "Dialects", "Target", "Compiled", "UB-Free")
	dialectsOf := map[string]string{
		"ariths":        "{arith, scf, func, vector}",
		"linalggeneric": "{linalg, arith, func, vector}",
		"tensor":        "{tensor, arith, func, vector}",
	}
	for _, preset := range gen.Presets() {
		cls := parallelMap(programs, workers, func(i int) classification {
			p, err := gen.Generate(gen.Config{Preset: preset, Size: size, Seed: seed + int64(i)})
			if err != nil {
				return classification{err: err}
			}
			return classification{cl: difftest.Classify(p.Module, preset)}
		})
		compiled, ubFree := tallyClassifications(cls, "generate")
		fmt.Printf("%-14s %-40s %-8s %8.2f%% %7.2f%%\n",
			preset, dialectsOf[preset], "{llvm}",
			pct(compiled, programs), pct(ubFree, programs))
	}
}

// table3 re-runs the bug-finding experiment: one campaign per injected
// defect, reporting which oracle detected it and after how many
// programs.
func table3(programs, size int, seed int64, workers int) {
	fmt.Println("Table 3 — bugs found by differential fuzzing campaigns")
	fmt.Printf("%-3s %-13s %-11s %-22s %-12s %-8s %-22s %s\n",
		"#", "Phase", "Symptom", "Pass", "PaperOracle", "Found", "Oracles fired", "Programs")
	for _, info := range bugs.Table() {
		res, err := difftest.RunCampaignParallel(difftest.CampaignConfig{
			Preset:   "ariths",
			Programs: programs,
			Size:     size,
			Seed:     seed + 1000*int64(info.ID),
			Bugs:     bugs.Only(info.ID),
		}, workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			os.Exit(1)
		}
		found := "no"
		firstAt := "-"
		if len(res.Detections) > 0 {
			found = "yes"
			firstAt = fmt.Sprintf("first@%d", res.Detections[0].Seed-(seed+1000*int64(info.ID))+1)
		}
		var fired []string
		for o, n := range res.ByOracle {
			fired = append(fired, fmt.Sprintf("%s×%d", o, n))
		}
		fmt.Printf("%-3d %-13s %-11s %-22s %-12s %-8s %-22s %d/%d (%s)\n",
			int(info.ID), info.Phase, info.Symptom, info.Pass, info.Oracle,
			found, strings.Join(fired, " "), len(res.Detections), res.Programs, firstAt)
	}
}

// table4 re-measures the MLIRSmith comparison.
func table4(programs, size int, seed int64, workers int) {
	fmt.Println("Table 4 — compileability / UB-freeness of MLIRSmith vs Ratte")
	fmt.Printf("%-16s %-28s %-10s %-10s\n", "Generator", "Preset", "Compiled", "UB-Free")
	for _, preset := range []string{"unmod", "ariths", "linalggeneric", "tensor"} {
		cls := parallelMap(programs, workers, func(i int) classification {
			m, err := mlirsmith.Generate(mlirsmith.Config{Preset: preset, Size: size, Seed: seed + int64(i)})
			if err != nil {
				return classification{err: err}
			}
			return classification{cl: difftest.Classify(m, preset)}
		})
		compiled, ubFree := tallyClassifications(cls, "mlirsmith")
		ub := fmt.Sprintf("%.2f%%", pct(ubFree, programs))
		if preset == "unmod" {
			ub = "N/A"
		}
		fmt.Printf("%-16s %-28s %9.2f%% %10s\n", "MLIRSmith", preset, pct(compiled, programs), ub)
	}
	for _, preset := range gen.Presets() {
		cls := parallelMap(programs, workers, func(i int) classification {
			p, err := gen.Generate(gen.Config{Preset: preset, Size: size, Seed: seed + int64(i)})
			if err != nil {
				return classification{err: err}
			}
			return classification{cl: difftest.Classify(p.Module, preset)}
		})
		compiled, ubFree := tallyClassifications(cls, "generate")
		fmt.Printf("%-16s %-28s %9.2f%% %9.2f%%\n", "Ratte", preset, pct(compiled, programs), pct(ubFree, programs))
	}
}

// throughput re-measures §4.2's generation-time comparison: seconds per
// 1000 programs for Ratte (which interprets during generation) vs the
// MLIRSmith baseline (which does not).
func throughput(programs, size int, seed int64, workers int) {
	fmt.Println("§4.2 — generation throughput (normalised to 1000 programs)")
	fmt.Printf("%-14s %-14s %-14s %-8s\n", "Preset", "Ratte", "MLIRSmith", "Ratio")
	for _, preset := range gen.Presets() {
		start := time.Now()
		errs := parallelMap(programs, workers, func(i int) error {
			_, err := gen.Generate(gen.Config{Preset: preset, Size: size, Seed: seed + int64(i)})
			return err
		})
		ratteTime := time.Since(start)
		for _, err := range errs {
			if err != nil {
				fmt.Fprintln(os.Stderr, "generate:", err)
				os.Exit(1)
			}
		}
		start = time.Now()
		errs = parallelMap(programs, workers, func(i int) error {
			_, err := mlirsmith.Generate(mlirsmith.Config{Preset: preset, Size: size, Seed: seed + int64(i)})
			return err
		})
		smithTime := time.Since(start)
		for _, err := range errs {
			if err != nil {
				fmt.Fprintln(os.Stderr, "mlirsmith:", err)
				os.Exit(1)
			}
		}
		norm := func(d time.Duration) string {
			per1000 := d.Seconds() * 1000 / float64(programs)
			return fmt.Sprintf("%.2fs/1000", per1000)
		}
		fmt.Printf("%-14s %-14s %-14s %6.1fx\n", preset, norm(ratteTime), norm(smithTime),
			ratteTime.Seconds()/smithTime.Seconds())
	}
}

// dol measures the false-positive rate of plain cross-optimisation-
// level testing (no reference semantics) on a CORRECT compiler: every
// alarm is a UB-induced false positive (§4.2's usability argument).
func dol(programs, size int, seed int64, workers int) {
	fmt.Println("§4.2 — DOL-testing false positives on a correct compiler")
	fmt.Printf("%-12s %-10s %-12s %-16s\n", "Generator", "Compiled", "Alarms", "FP rate")
	type dolResult struct {
		compiled, alarm bool
		err             error
	}
	tally := func(rs []dolResult, what string) (compiled, alarms int) {
		for _, r := range rs {
			if r.err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", what, r.err)
				os.Exit(1)
			}
			if r.compiled {
				compiled++
			}
			if r.alarm {
				alarms++
			}
		}
		return compiled, alarms
	}
	rs := parallelMap(programs, workers, func(i int) dolResult {
		p, err := gen.Generate(gen.Config{Preset: "ariths", Size: size, Seed: seed + int64(i)})
		if err != nil {
			return dolResult{err: err}
		}
		c, a := difftest.DOLAlarm(p.Module, "ariths")
		return dolResult{compiled: c, alarm: a}
	})
	compiled, alarms := tally(rs, "generate")
	fmt.Printf("%-12s %-10d %-12d %8.2f%%\n", "Ratte", compiled, alarms, pct(alarms, max(compiled, 1)))
	rs = parallelMap(programs, workers, func(i int) dolResult {
		m, err := mlirsmith.Generate(mlirsmith.Config{Preset: "ariths", Size: size, Seed: seed + int64(i)})
		if err != nil {
			return dolResult{err: err}
		}
		c, a := difftest.DOLAlarm(m, "ariths")
		return dolResult{compiled: c, alarm: a}
	})
	compiled, alarms = tally(rs, "mlirsmith")
	fmt.Printf("%-12s %-10d %-12d %8.2f%%\n", "MLIRSmith", compiled, alarms, pct(alarms, max(compiled, 1)))
}

// buildCampaign assembles the campaign configuration shared by the
// single-process, fleet-coordinator and fleet-worker modes. The bug
// set is returned separately because the reduction path re-tests
// against it.
func buildCampaign(o options) (difftest.CampaignConfig, bugs.Set, error) {
	bugSet := bugs.None()
	for _, part := range strings.Split(o.bugList, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return difftest.CampaignConfig{}, nil, fmt.Errorf("bad bug id %q", part)
		}
		bugSet[bugs.ID(n)] = true
	}

	cfg := difftest.CampaignConfig{
		Preset:     o.preset,
		Programs:   o.programs,
		Size:       o.size,
		Seed:       o.seed,
		Bugs:       bugSet,
		Timeout:    o.timeout,
		MaxRetries: o.retries,
		FamilySize: o.family,
		Batched:    o.batched,
	}
	if o.coverage && o.family > 1 {
		// Family mode shares one generated program across the family and
		// runs its pipeline uncovered; a coverage flag there would record
		// nothing and mislead.
		return difftest.CampaignConfig{}, nil, errors.New("-coverage is not supported with -family campaigns")
	}
	if o.fuzzPipelines > 0 {
		plans, err := compiler.SamplePlans(o.preset, o.fuzzPipelines, o.planSeed)
		if err != nil {
			return difftest.CampaignConfig{}, nil, err
		}
		cfg.Plans = plans
	}
	if o.faultRate > 0 {
		cfg.Faults = &faultinject.Spec{
			Seed: o.faultSeed,
			Rate: o.faultRate,
			Kinds: []faultinject.Kind{
				faultinject.KindError, faultinject.KindPanic, faultinject.KindDelay,
			},
		}
	}
	if o.coverage {
		// A private accumulator: the coordinator folds merged verdict
		// summaries into it, a worker takes it as the signal to record
		// coverage per shard, and adhoc swaps in one on its telemetry
		// registry when it has one.
		cfg.Coverage = difftest.NewCampaignCoverage(nil)
	}
	// The library rejects contradictory knobs (-family with
	// -fuzz-pipelines, -fault-rate or -timeout-per-program; -batched
	// without -family) before any journal or listener exists.
	if _, err := difftest.CampaignFingerprint(cfg); err != nil {
		return difftest.CampaignConfig{}, nil, err
	}
	return cfg, bugSet, nil
}

// adhoc runs a plain campaign: fault-isolated, optionally journaled and
// resumable, interruptible by SIGINT/SIGTERM with a graceful drain.
func adhoc(o options) {
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "ratte-fuzz:", err)
		os.Exit(1)
	}
	cfg, bugSet, err := buildCampaign(o)
	if err != nil {
		fatal(err)
	}

	journal, err := openJournal(o, &cfg)
	if err != nil {
		fatal(err)
	}
	closeJournal := func() {
		if journal == nil {
			return
		}
		if err := journal.Close(); err != nil {
			fatal(err)
		}
		journal = nil
	}

	// Telemetry is created only when some observer wants it — the
	// campaign's results are byte-identical either way, so the flags
	// only decide whether the run pays for instrument updates.
	var tel *difftest.CampaignTelemetry
	if o.metricsAddr != "" || o.metricsDump != "" || o.progress > 0 {
		tel = difftest.NewCampaignTelemetry(nil)
		telemetry.RegisterProcessMetrics(tel.Registry)
		cfg.Telemetry = tel
	}
	// Coverage rides the telemetry registry when one exists, so the
	// per-site counters show up on -metrics-addr / -metrics-dump; with
	// neither it accumulates privately for the -coverage-dump file.
	cov := cfg.Coverage
	if cov != nil && tel != nil {
		cov = difftest.NewCampaignCoverage(tel.Registry)
		cfg.Coverage = cov
	}
	var metricsSrv *telemetry.Server
	if o.metricsAddr != "" {
		// Live pprof contention endpoints need the samplers on.
		profiling.EnableContention(0, 0)
		var err error
		metricsSrv, err = telemetry.Serve(o.metricsAddr, tel.Registry)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving /metrics, /debug/vars, /debug/pprof on http://%s\n", metricsSrv.Addr())
	}
	if o.progress > 0 {
		ticker := time.NewTicker(o.progress)
		progressDone := make(chan struct{})
		go func() {
			for {
				select {
				case <-ticker.C:
					if line := tel.ProgressLine(); line != "" {
						fmt.Fprintln(os.Stderr, line)
					}
				case <-progressDone:
					return
				}
			}
		}()
		defer func() { ticker.Stop(); close(progressDone) }()
	}

	// SIGINT/SIGTERM cancel the campaign context: both engines drain the
	// in-flight seeds, every completed verdict is already journaled, and
	// the partial report below tells the user how far the run got.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := difftest.RunCampaignParallelCtx(ctx, cfg, o.workers)
	elapsed := time.Since(start)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		closeJournal()
		fatal(err)
	}
	closeJournal()

	// The wrap-up runs on the interrupted path too: a drained SIGINT
	// exit reports its throughput and flushes its metrics like a clean
	// one — the whole point of the graceful drain.
	finish := func() {
		verdicted := len(res.Verdicts)
		rate := 0.0
		if elapsed > 0 {
			rate = float64(verdicted) / elapsed.Seconds()
		}
		// Runtime stats go to stderr: stdout stays byte-identical across
		// workers/telemetry settings (the CLI determinism check diffs it).
		fmt.Fprintf(os.Stderr, "elapsed: %s (%d programs, %.1f/sec)\n",
			elapsed.Round(time.Millisecond), verdicted, rate)
		if tel != nil {
			fmt.Fprint(os.Stderr, tel.ReportSection())
		}
		if cov != nil {
			fmt.Fprintf(os.Stderr, "coverage: %d sites, %d hits\n", cov.Sites(), cov.Total())
		}
		if o.coverageDump != "" {
			if err := os.WriteFile(o.coverageDump, []byte(cov.Text()), 0o644); err != nil {
				fatal(err)
			}
		}
		if o.metricsDump != "" {
			if err := os.WriteFile(o.metricsDump, []byte(tel.Registry.PrometheusText()), 0o644); err != nil {
				fatal(err)
			}
		}
		if metricsSrv != nil {
			metricsSrv.Close()
		}
	}

	fmt.Print(difftest.ReportText(res))
	finish()
	if interrupted {
		fmt.Println("interrupted: partial results above")
		if o.journal != "" {
			fmt.Printf("journal flushed; continue with: -resume -journal=%s\n", o.journal)
		}
		os.Exit(130)
	}

	if len(res.Detections) > 0 && o.doReduce {
		d := res.Detections[0]
		prog := d.Program
		if prog == nil {
			// A resumed detection carries only (seed, oracle, plan): the
			// program is regenerated from its seed.
			p, err := gen.Generate(gen.Config{Preset: o.preset, Size: o.size, Seed: d.Seed})
			if err != nil {
				fatal(err)
			}
			prog = p.Module
		}
		if len(cfg.Plans) > 0 {
			// Plan-mode finding: a (program, plan) pair, reduced on both
			// axes. The detection names its plan by key; resolve it in the
			// sampled set.
			var plan compiler.Plan
			found := false
			for _, p := range cfg.Plans {
				if p.Key() == d.Plan {
					plan, found = p, true
					break
				}
			}
			if !found {
				fatal(fmt.Errorf("detection plan %s not in the sampled set", d.Plan))
			}
			pred := func(m *ir.Module, p compiler.Plan) bool {
				ref, err := ratte.Interpret(m, "main")
				if err != nil {
					return false
				}
				rep := difftest.TestModulePlans(m, ref.Output, []compiler.Plan{p}, bugSet)
				fired, _ := rep.Detected()
				return fired == d.Oracle
			}
			small, smallPlan := reduce.ProgramPlan(prog, plan, pred)
			fmt.Printf("reduced test case (%d ops -> %d ops, plan %d -> %d passes):\n", prog.NumOps(), small.NumOps(), len(plan.Passes), len(smallPlan.Passes))
			fmt.Printf("// plan: %s\n%s\n", strings.Join(smallPlan.Passes, ","), ir.Print(small))
			return
		}
		pred := func(m *ir.Module) bool {
			ref, err := ratte.Interpret(m, "main")
			if err != nil {
				return false
			}
			return difftest.TestModule(m, ref.Output, o.preset, bugSet).Detected() == d.Oracle
		}
		small := reduce.Module(prog, pred)
		fmt.Printf("reduced test case (%d ops -> %d ops):\n%s\n",
			prog.NumOps(), small.NumOps(), ir.Print(small))
	}
}

// openJournal attaches o.journal to cfg: created fresh, or with
// -resume reopened with its recorded verdicts spliced into
// cfg.Resumed. It returns nil without -journal.
func openJournal(o options, cfg *difftest.CampaignConfig) (*difftest.Journal, error) {
	if o.journal == "" {
		return nil, nil
	}
	if !o.resume {
		j, err := difftest.CreateJournal(o.journal, *cfg)
		cfg.Journal = j
		return j, err
	}
	j, resumed, err := difftest.OpenJournalForResume(o.journal, *cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("resuming: %d of %d seeds already verdicted\n", len(resumed), o.programs)
	cfg.Journal, cfg.Resumed = j, resumed
	return j, nil
}

func pct(n, total int) float64 { return 100 * float64(n) / float64(total) }
