package main

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"strings"
	"time"
)

// options is the parsed ratte-fuzz command line.
type options struct {
	experiment string

	cpuprofile   string
	memprofile   string
	blockprofile string
	mutexprofile string

	preset    string
	programs  int
	size      int
	seed      int64
	bugList   string
	doReduce  bool
	workers   int
	journal   string
	resume    bool
	timeout   time.Duration
	faultRate float64
	faultSeed int64
	retries   int
	family    int
	batched   bool

	fuzzPipelines int
	planSeed      int64

	metricsAddr string
	metricsDump string
	progress    time.Duration

	coverage     bool
	coverageDump string

	serve     string
	workerOf  string
	shardSize int
	leaseTTL  time.Duration

	fleetToken    string
	fleetLedger   string
	uploadRetries int
	spoolPath     string
	netFaultRate  float64
	netFaultSeed  int64
	fleetEvents   string
}

// newFlagSet defines every ratte-fuzz flag on a fresh FlagSet bound
// to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("ratte-fuzz", flag.ExitOnError)
	fs.StringVar(&o.experiment, "experiment", "", "table2 | table3 | table4 | throughput | dol")
	fs.StringVar(&o.preset, "preset", "ariths", "generator preset for ad-hoc campaigns")
	fs.IntVar(&o.programs, "programs", 200, "programs per campaign")
	fs.IntVar(&o.size, "size", 30, "fragments per program")
	fs.Int64Var(&o.seed, "seed", 1, "base seed")
	fs.StringVar(&o.bugList, "bugs", "", "comma-separated injected bug ids")
	fs.BoolVar(&o.doReduce, "reduce", false, "reduce the first detection's test case")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "parallel workers (all modes); defaults to GOMAXPROCS")
	fs.StringVar(&o.journal, "journal", "", "append campaign verdicts to this JSONL file (ad-hoc campaigns)")
	fs.BoolVar(&o.resume, "resume", false, "resume the campaign recorded in -journal, skipping verdicted seeds")
	fs.IntVar(&o.family, "family", 0, "mutation-family size: test each generated program plus N-1 constant-mutated variants (ad-hoc campaigns)")
	fs.IntVar(&o.fuzzPipelines, "fuzz-pipelines", 0, "phase-ordering mode: test each program under N sampled legal pass plans instead of the fixed build configurations (ad-hoc campaigns)")
	fs.Int64Var(&o.planSeed, "plan-seed", 1, "seed of the sampled plan set (with -fuzz-pipelines)")
	fs.BoolVar(&o.batched, "batched", false, "share verification, compilation and interpreter compilation across each mutation family")
	fs.DurationVar(&o.timeout, "timeout-per-program", 0, "wall-clock budget per program (0 = unbounded)")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "deterministic fault-injection rate in [0,1] (robustness testing)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed of the injected-fault schedule")
	fs.IntVar(&o.retries, "retries", 2, "max retries for transiently failing programs")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on clean shutdown")
	fs.StringVar(&o.blockprofile, "blockprofile", "", "write a goroutine blocking profile to this file on clean shutdown")
	fs.StringVar(&o.mutexprofile, "mutexprofile", "", "write a mutex contention profile to this file on clean shutdown")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (ad-hoc campaigns)")
	fs.StringVar(&o.metricsDump, "metrics-dump", "", "write the final Prometheus metrics payload to this file (ad-hoc campaigns)")
	fs.BoolVar(&o.coverage, "coverage", false, "record semantic coverage (generator choices, compiler rewrites, interpreted ops); observation-only, results are byte-identical")
	fs.StringVar(&o.coverageDump, "coverage-dump", "", "write the final coverage union (site hit-counts) to this file; implies -coverage")
	fs.DurationVar(&o.progress, "progress", 0, "print a one-line campaign status to stderr at this interval (ad-hoc campaigns)")
	fs.StringVar(&o.serve, "serve", "", "fleet coordinator mode: serve the campaign's shards on this address (host:port)")
	fs.StringVar(&o.workerOf, "worker", "", "fleet worker mode: lease shards from this coordinator URL (http://host:port)")
	fs.IntVar(&o.shardSize, "shard-size", 0, "seeds per fleet shard (0 = auto, with -serve)")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 0, "fleet shard lease expiry before re-issue (0 = 15s, with -serve)")
	fs.StringVar(&o.fleetToken, "fleet-token", "", "shared fleet secret; every request must carry it (both -serve and -worker)")
	fs.StringVar(&o.fleetLedger, "fleet-ledger", "", "coordinator shard ledger path (with -serve; defaults to <journal>.ledger when -journal is set)")
	fs.IntVar(&o.uploadRetries, "upload-retries", 0, "max retries per worker upload before giving up (0 = default 5, with -worker)")
	fs.StringVar(&o.spoolPath, "spool", "", "worker upload spool path: shard results persist locally until acknowledged (with -worker)")
	fs.Float64Var(&o.netFaultRate, "net-fault-rate", 0, "deterministic network fault-injection rate in [0,1] on the worker's wire (with -worker)")
	fs.Int64Var(&o.netFaultSeed, "net-fault-seed", 1, "seed of the injected network-fault schedule (with -net-fault-rate)")
	fs.StringVar(&o.fleetEvents, "fleet-events", "", "append fleet lifecycle events (JSONL, keyed by campaign id) to this file (both -serve and -worker)")
	return fs
}

// The modes a command line selects: -experiment, a plain (ad-hoc)
// campaign, -serve or -worker.
const (
	modeExperiment = 1 << iota
	modeCampaign
	modeServe
	modeWorker

	modeFleet = modeServe | modeWorker
)

// flagModes lists the modes each mode-specific flag takes effect in.
// Flags absent here (-experiment, -programs, -size, -seed, -workers
// and the profiles) apply everywhere.
var flagModes = map[string]int{
	"serve":               modeServe,
	"worker":              modeWorker,
	"preset":              modeCampaign | modeFleet,
	"bugs":                modeCampaign | modeFleet,
	"reduce":              modeCampaign,
	"journal":             modeCampaign | modeServe,
	"resume":              modeCampaign | modeServe,
	"family":              modeCampaign | modeFleet,
	"fuzz-pipelines":      modeCampaign | modeFleet,
	"plan-seed":           modeCampaign | modeFleet,
	"batched":             modeCampaign | modeFleet,
	"timeout-per-program": modeCampaign | modeFleet,
	"fault-rate":          modeCampaign | modeFleet,
	"fault-seed":          modeCampaign | modeFleet,
	"retries":             modeCampaign | modeFleet,
	"metrics-addr":        modeCampaign,
	"metrics-dump":        modeCampaign | modeServe,
	"coverage":            modeCampaign | modeFleet,
	"coverage-dump":       modeCampaign | modeServe,
	"progress":            modeCampaign | modeServe,
	"shard-size":          modeServe,
	"lease-ttl":           modeServe,
	"fleet-ledger":        modeServe,
	"upload-retries":      modeWorker,
	"spool":               modeWorker,
	"net-fault-rate":      modeWorker,
	"net-fault-seed":      modeWorker,
	"fleet-token":         modeFleet,
	"fleet-events":        modeFleet,
}

// checkFlags rejects a command line that sets a flag its mode would
// silently ignore, or that combines flags that contradict each other.
// Contradictory campaign knobs are the library's to reject
// (buildCampaign).
func checkFlags(fs *flag.FlagSet, o options) error {
	if o.serve != "" && o.workerOf != "" {
		return errors.New("-serve and -worker are mutually exclusive")
	}
	mode, name := modeCampaign, "an ad-hoc campaign"
	switch {
	case o.experiment != "":
		mode, name = modeExperiment, "-experiment"
	case o.serve != "":
		mode, name = modeServe, "-serve"
	case o.workerOf != "":
		mode, name = modeWorker, "-worker"
	}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if m, ok := flagModes[f.Name]; ok && m&mode == 0 {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("%s would be ignored by %s", strings.Join(bad, ", "), name)
	}
	if o.resume && o.journal == "" {
		return errors.New("-resume needs -journal")
	}
	return nil
}
