// Command mlir-quickcheck generates random MLIR programs with Ratte's
// semantics-guided generators (or, with -smith, the MLIRSmith-style
// baseline), mirroring the paper artifact's binary of the same name.
//
// The generated program is printed to stdout; for Ratte-generated
// programs the expected execution output follows as comment lines, so
// the pair can be fed straight into a differential-testing harness:
//
//	mlir-quickcheck -d=ariths -n=30 -seed=7
//
// With -check the command instead drives the conformance harness
// (internal/conformance): it runs property oracles over a deterministic
// seed schedule, auto-shrinks any counterexample and can persist it
// into a regression corpus. The same engine drives CI smoke runs and
// long local campaigns:
//
//	mlir-quickcheck -check list                         # available oracles
//	mlir-quickcheck -check round-trip/ariths -trials 50
//	mlir-quickcheck -check all -trials 5 -seed 1        # CI smoke shape
//	mlir-quickcheck -check all -corpus testdata/regressions
//	mlir-quickcheck -check replay -corpus testdata/regressions
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ratte"
	"ratte/internal/profiling"
	"ratte/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; main only binds it to the process. Output
// is deterministic for a fixed flag set (the golden-output test pins
// that), which is what makes -check usable as a CI gate.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlir-quickcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("d", "ariths", "generator preset: ariths | linalggeneric | tensor | all")
	size := fs.Int("n", 30, "approximate number of generated fragments")
	seed := fs.Int64("seed", 0, "generation seed (with -check: base of the trial seed schedule)")
	smith := fs.Bool("smith", false, "use the MLIRSmith-style baseline generator instead")
	expected := fs.Bool("expected", true, "append the expected output as comments")
	check := fs.String("check", "", "conformance mode: an oracle name, 'all', 'list' or 'replay'")
	trials := fs.Int("trials", 25, "trials per oracle (with -check)")
	corpus := fs.String("corpus", "", "regression corpus directory: counterexamples are persisted there (with -check), and -check replay re-runs it")
	noShrink := fs.Bool("no-shrink", false, "disable counterexample minimization (with -check)")
	stopAtFirst := fs.Bool("stop-at-first", false, "stop an oracle's run at its first counterexample (with -check)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on clean shutdown")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address for the run's duration")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProfiling, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "mlir-quickcheck:", err)
		return 1
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			fmt.Fprintln(stderr, "mlir-quickcheck:", err)
		}
	}()

	if *metricsAddr != "" {
		// Long -check campaigns are the use case: a live scrape shows
		// the process gauges (goroutines, heap, GC cycles) and the
		// pprof endpoints mid-run.
		profiling.EnableContention(0, 0)
		reg := telemetry.Default()
		telemetry.RegisterProcessMetrics(reg)
		srv, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(stderr, "mlir-quickcheck:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "serving /metrics, /debug/vars, /debug/pprof on http://%s\n", srv.Addr())
	}

	if *check != "" {
		return runCheck(checkConfig{
			mode:        *check,
			trials:      *trials,
			seed:        *seed,
			corpus:      *corpus,
			noShrink:    *noShrink,
			stopAtFirst: *stopAtFirst,
		}, stdout, stderr)
	}

	if *smith {
		m, err := ratte.GenerateSmith(ratte.SmithConfig{Preset: *preset, Size: *size, Seed: *seed})
		if err != nil {
			fmt.Fprintln(stderr, "mlir-quickcheck:", err)
			return 1
		}
		fmt.Fprint(stdout, ratte.PrintModule(m))
		fmt.Fprintln(stdout)
		return 0
	}

	p, err := ratte.Generate(ratte.GenConfig{Preset: *preset, Size: *size, Seed: *seed})
	if err != nil {
		fmt.Fprintln(stderr, "mlir-quickcheck:", err)
		return 1
	}
	fmt.Fprint(stdout, ratte.PrintModule(p.Module))
	fmt.Fprintln(stdout)
	if *expected {
		fmt.Fprintln(stdout, "// expected output:")
		for _, line := range strings.Split(strings.TrimRight(p.Expected, "\n"), "\n") {
			fmt.Fprintf(stdout, "// %s\n", line)
		}
	}
	return 0
}

type checkConfig struct {
	mode        string
	trials      int
	seed        int64
	corpus      string
	noShrink    bool
	stopAtFirst bool
}

// runCheck executes the -check conformance mode.
func runCheck(cc checkConfig, stdout, stderr io.Writer) int {
	switch cc.mode {
	case "list":
		for _, name := range ratte.ConformanceOracleNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0

	case "replay":
		if cc.corpus == "" {
			fmt.Fprintln(stderr, "mlir-quickcheck: -check replay needs -corpus <dir>")
			return 2
		}
		rs, errs := ratte.ReplayRegressions(cc.corpus)
		for _, err := range errs {
			fmt.Fprintln(stdout, "FAIL", err)
		}
		if len(errs) > 0 {
			fmt.Fprintf(stdout, "FAIL corpus %s: %d of %d regressions violated\n", cc.corpus, len(errs), len(rs))
			return 1
		}
		fmt.Fprintf(stdout, "ok   corpus %s: %d regressions replayed\n", cc.corpus, len(rs))
		return 0
	}

	var oracles []ratte.ConformanceOracle
	if cc.mode == "all" {
		oracles = ratte.ConformanceOracles()
	} else if o, err := ratte.LookupConformanceOracle(cc.mode); err == nil {
		oracles = []ratte.ConformanceOracle{o}
	} else {
		// A bare family name (e.g. "plan-equivalence") selects every
		// standard oracle of that family across the presets.
		for _, o := range ratte.ConformanceOracles() {
			if strings.HasPrefix(o.Name(), cc.mode+"/") {
				oracles = append(oracles, o)
			}
		}
		if len(oracles) == 0 {
			fmt.Fprintln(stderr, "mlir-quickcheck:", err)
			return 2
		}
	}

	failed := 0
	for _, o := range oracles {
		res, err := ratte.RunConformance(o, ratte.ConformanceConfig{
			Trials:      cc.trials,
			Seed:        cc.seed,
			NoShrink:    cc.noShrink,
			CorpusDir:   cc.corpus,
			StopAtFirst: cc.stopAtFirst,
			Log:         stdout,
		})
		if err != nil {
			fmt.Fprintln(stderr, "mlir-quickcheck:", err)
			return 1
		}
		failed += len(res.Failures)
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "FAIL %d counterexamples across %d oracles\n", failed, len(oracles))
		return 1
	}
	fmt.Fprintf(stdout, "ok   %d oracles, %d trials each\n", len(oracles), cc.trials)
	return 0
}
