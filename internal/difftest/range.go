// Shard-ranged campaign entry points: the difftest half of the fleet
// protocol (internal/fleet). A distributed campaign is the same seed
// space as a single-process one, partitioned into contiguous index
// ranges (shards). Because every verdict depends only on (config,
// seed) — the invariant the per-seed pipeline already guarantees — a
// worker that runs RunCampaignRange over its shard produces exactly
// the verdicts the serial engine would have produced at those
// positions, and a coordinator that splices shard verdict streams back
// into seed order reproduces the serial campaign byte for byte.
package difftest

import (
	"context"
	"encoding/json"
	"fmt"
)

// CampaignFingerprint renders the configuration fingerprint of a
// campaign: a deterministic JSON encoding of everything that
// determines its verdicts except the program count — the same header
// the campaign journal stores on line 1. Two processes with equal
// fingerprints produce identical verdicts for identical seeds, which
// is exactly the check the fleet coordinator applies when a worker
// registers (and the journal applies on resume).
func CampaignFingerprint(cfg CampaignConfig) ([]byte, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(headerFor(&cfg))
	if err != nil {
		return nil, fmt.Errorf("difftest: fingerprint: %w", err)
	}
	return data, nil
}

// ValidateShardRange checks that [first, first+count) is a legal shard
// of the campaign: within bounds and, in family mode, aligned to the
// mutation-family boundaries (a family generates its base program from
// its first seed, so splitting one across shards would change which
// program its members test).
func ValidateShardRange(cfg *CampaignConfig, first, count int) error {
	if first < 0 || count <= 0 || first+count > cfg.Programs {
		return fmt.Errorf("difftest: shard [%d,%d) outside campaign of %d programs", first, first+count, cfg.Programs)
	}
	if cfg.FamilySize > 1 {
		if first%cfg.FamilySize != 0 {
			return fmt.Errorf("difftest: shard start %d not aligned to family size %d", first, cfg.FamilySize)
		}
		if count%cfg.FamilySize != 0 && first+count != cfg.Programs {
			return fmt.Errorf("difftest: shard count %d not aligned to family size %d", count, cfg.FamilySize)
		}
	}
	return nil
}

// RunCampaignRange runs the index range [first, first+count) of the
// campaign's seed space and returns the verdicts in seed order — the
// worker half of a distributed campaign. The range runs under the
// campaign's full configuration (preset, bugs, faults, plans, family
// structure...); only the window of seeds differs, so the returned
// verdicts are byte-identical to the corresponding slice of a
// single-process run. Journals, resume maps and StopAtFirst belong to
// the whole campaign and are ignored here; workers is the in-process
// parallelism of the range.
func RunCampaignRange(ctx context.Context, cfg CampaignConfig, first, count, workers int) ([]Verdict, error) {
	if err := ValidateShardRange(&cfg, first, count); err != nil {
		return nil, err
	}
	cfg.Seed += int64(first)
	cfg.Programs = count
	cfg.Journal, cfg.Resumed, cfg.StopAtFirst = nil, nil, false
	res, err := RunCampaignParallelCtx(ctx, cfg, workers)
	if err != nil {
		return nil, err
	}
	return res.Verdicts, nil
}

// AssembleResult reconstructs a campaign result from its verdicts in
// seed order by feeding them through the campaign engine's sequencer —
// the merge half of a distributed campaign. ReportText over the
// assembled result is byte-identical to the single-process run's,
// because the report depends only on the sequenced verdicts. When
// cfg.Telemetry or cfg.Coverage is set, each verdict is also folded
// into it; the journal, resume map and StopAtFirst are not consulted.
func AssembleResult(cfg CampaignConfig, verdicts []Verdict) *CampaignResult {
	cfg.Programs = len(verdicts)
	cfg.Journal, cfg.Resumed, cfg.StopAtFirst = nil, nil, false
	seq := newSequencer(&cfg)
	outs := make([]seedOutcome, len(verdicts))
	for i, v := range verdicts {
		outs[i].verdict = v
	}
	seq.offer(0, outs)
	return seq.res
}
