package main

import (
	"strings"
	"testing"
)

// checkArgs parses args as the command line and runs checkFlags on it.
func checkArgs(t *testing.T, args string) error {
	t.Helper()
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return checkFlags(fs, o)
}

// TestCheckFlagsRejects: every flag a mode would silently ignore, and
// every contradictory combination, is an error naming the culprit.
func TestCheckFlagsRejects(t *testing.T) {
	const camp = "-preset=ariths -programs=40 -size=16 -seed=97"
	const serve = camp + " -serve=127.0.0.1:7777"
	const worker = camp + " -worker=http://127.0.0.1:7777"
	for _, tc := range []struct{ args, want string }{
		// Coordinator-only flags without -serve.
		{camp + " -shard-size=25", "-shard-size"},
		{camp + " -lease-ttl=2s", "-lease-ttl"},
		{camp + " -fleet-ledger=run.ledger", "-fleet-ledger"},
		{worker + " -shard-size=25", "-shard-size"},
		{worker + " -lease-ttl=2s", "-lease-ttl"},
		{worker + " -fleet-ledger=run.ledger", "-fleet-ledger"},
		// Worker-only flags without -worker.
		{camp + " -spool=w.spool", "-spool"},
		{camp + " -upload-retries=8", "-upload-retries"},
		{camp + " -net-fault-rate=0.05", "-net-fault-rate"},
		{camp + " -net-fault-seed=11", "-net-fault-seed"},
		{serve + " -spool=w.spool", "-spool"},
		{serve + " -upload-retries=8", "-upload-retries"},
		{serve + " -net-fault-rate=0.05 -net-fault-seed=11", "-net-fault-rate, -net-fault-seed"},
		// Fleet-only flags outside fleet mode.
		{camp + " -fleet-token=s", "-fleet-token"},
		{camp + " -fleet-events=ev.jsonl", "-fleet-events"},
		// Campaign flags under -experiment.
		{"-experiment=table3 -bugs=3", "-bugs"},
		{"-experiment=table3 -journal=j.jsonl", "-journal"},
		{"-experiment=table2 -preset=tensor", "-preset"},
		{"-experiment=table4 -reduce", "-reduce"},
		{"-experiment=dol -fault-rate=0.02", "-fault-rate"},
		{"-experiment=throughput -metrics-dump=m.prom", "-metrics-dump"},
		{"-experiment=table2 -serve=127.0.0.1:7777", "-serve"},
		// Mode conflicts.
		{serve + " -worker=http://127.0.0.1:7777", "mutually exclusive"},
		{camp + " -resume", "-resume needs -journal"},
		{serve + " -resume", "-resume needs -journal"},
		// Dependent flags without the flag that enables them.
		{camp + " -plan-seed=3", "-plan-seed needs -fuzz-pipelines"},
		{camp + " -fault-seed=5", "-fault-seed needs -fault-rate"},
		{camp + " -fault-rate=0 -fault-seed=5", "-fault-seed needs -fault-rate"},
		{camp + " -retries=4", "-retries needs -fault-rate"},
		{serve + " -retries=4", "-retries needs -fault-rate"},
		{worker + " -net-fault-seed=11", "-net-fault-seed needs -net-fault-rate"},
		{worker + " -journal=j.jsonl", "-journal"},
		{worker + " -journal=j.jsonl -resume", "-journal, -resume"},
		{worker + " -reduce", "-reduce"},
		{serve + " -reduce", "-reduce"},
		// Observability the mode has no place for.
		{serve + " -metrics-addr=127.0.0.1:9464", "-metrics-addr"},
		{worker + " -metrics-dump=m.prom", "-metrics-dump"},
		{worker + " -coverage-dump=c.txt", "-coverage-dump"},
		{worker + " -progress=1s", "-progress"},
	} {
		err := checkArgs(t, tc.args)
		if err == nil {
			t.Errorf("%s: accepted, want an error naming %s", tc.args, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.args, err, tc.want)
		}
	}
}

// TestCheckFlagsAccepts: every command line CI and the docs run stays
// valid.
func TestCheckFlagsAccepts(t *testing.T) {
	const fam = "-preset=ariths -size=16 -seed=97 -family=4"
	const chaos = "-preset=ariths -programs=400 -size=14 -seed=97 -bugs=7"
	const obs = "-preset=ariths -programs=200 -size=14 -seed=97 -bugs=7"
	for _, args := range []string{
		// Fault-injection and telemetry smokes.
		"-preset=ariths -programs=200 -size=16 -seed=97 -workers=4 -fault-rate=0.02 -journal=fault-smoke.jsonl",
		"-preset=ariths -programs=200 -size=16 -seed=97 -workers=4 -metrics-addr=127.0.0.1:9464 -metrics-dump=metrics.prom -progress=1s",
		// Batched and family campaigns.
		"-preset=ariths -programs=120 -size=16 -seed=97 -family=4",
		"-preset=ariths -programs=120 -size=16 -seed=97 -family=4 -batched",
		"-preset=ariths -programs=120 -size=16 -seed=97 -family=4 -batched -workers=4",
		fam + " -batched -programs=120 -workers=1",
		fam + " -batched -programs=62 -workers=1 -journal=fam.jsonl",
		fam + " -batched -programs=120 -workers=4 -journal=fam.jsonl -resume",
		fam + " -bugs=3 -programs=120 -workers=4",
		// Pipeline fuzzing.
		"-preset=ariths -fuzz-pipelines=8 -plan-seed=1 -programs=200 -size=16 -seed=97 -workers=4",
		"-preset=ariths -fuzz-pipelines=8 -plan-seed=1 -programs=60 -size=16 -seed=97 -bugs=6 -journal=plans.jsonl",
		"-preset=ariths -fuzz-pipelines=8 -plan-seed=1 -programs=120 -size=16 -seed=97 -bugs=6 -journal=plans.jsonl -resume",
		// Fleet smoke.
		"-serve=127.0.0.1:7777 -preset=ariths -programs=400 -size=14 -seed=97 -bugs=3",
		"-worker=http://127.0.0.1:7777 -preset=ariths -size=14 -seed=97 -bugs=3",
		// Fleet chaos smoke.
		chaos + " -serve=127.0.0.1:7791 -journal=chaos.jsonl -shard-size=25 -lease-ttl=2s -fleet-token=ci-secret",
		chaos + " -worker=http://127.0.0.1:7791 -fleet-token=ci-secret -upload-retries=8 -spool=w1.spool -net-fault-rate=0.05 -net-fault-seed=11",
		chaos + " -serve=127.0.0.1:7791 -journal=chaos.jsonl -resume -shard-size=25 -lease-ttl=2s -fleet-token=ci-secret",
		// Fleet observability smoke.
		obs + " -coverage -coverage-dump=serial-cov.txt",
		obs + " -serve=127.0.0.1:7801 -shard-size=25 -coverage -coverage-dump=fleet-cov.txt -metrics-dump=fleet-metrics.prom -fleet-events=fleet-events.jsonl",
		obs + " -worker=http://127.0.0.1:7801 -coverage -fleet-events=fleet-events.jsonl",
		// Experiments, reduction and profiling from the README.
		"-experiment=table2 -programs=6 -size=12 -workers=4",
		"-experiment=table3 -programs=30 -size=16 -workers=4 -cpuprofile=cpu.out",
		"-preset=ariths -programs=500 -bugs=7 -reduce",
		"-serve=127.0.0.1:7777 -preset=ariths -programs=100000 -size=20 -seed=42 -bugs=3 -journal=run.jsonl",
		"-worker=http://127.0.0.1:7777 -preset=ariths -size=20 -seed=42 -bugs=3 -workers=4",
	} {
		if err := checkArgs(t, args); err != nil {
			t.Errorf("%s: rejected: %v", args, err)
		}
	}
}
