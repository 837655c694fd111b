// Campaign semantic coverage: the per-campaign union of the per-seed
// coverage maps the generator, compiler and interpreter populate while
// a seed runs. Like CampaignTelemetry, the layer is strictly
// observational — a campaign with coverage attached produces the
// byte-identical ReportText of one without, serial, parallel or
// sharded — and a nil *CampaignCoverage disables everything down to a
// nil check per instrumentation point.
//
// The union is folded from each verdict's name-keyed summary
// (Verdict.Coverage) in the campaign engine's sequencer, never from
// live maps. That makes the union a pure function
// of the sequenced verdicts: a resumed campaign (whose journal lines
// carry the summaries) and a fleet coordinator (whose shards upload
// them) reconstruct the identical union.
//
// Family mode is excluded: batched families share one generated
// program across members, so a per-member map would double-count the
// shared work; runFamily simply does not allocate seed maps.
package difftest

import (
	"sync"

	"ratte/internal/coverage"
	"ratte/internal/telemetry"
)

// CampaignCoverage accumulates a campaign's semantic-coverage union.
// Construct with NewCampaignCoverage and attach via
// CampaignConfig.Coverage; all methods are safe on a nil receiver and
// from concurrent callers.
type CampaignCoverage struct {
	mu    sync.Mutex
	union *coverage.Map

	// sites mirrors the union into ratte_coverage_hits_total{site=...}
	// counters when a registry was supplied (nil otherwise).
	sites *telemetry.CounterVec
}

// NewCampaignCoverage builds the campaign coverage accumulator. When
// reg is non-nil, every folded site is also exported as a
// ratte_coverage_hits_total{site="..."} counter.
func NewCampaignCoverage(reg *telemetry.Registry) *CampaignCoverage {
	c := &CampaignCoverage{union: coverage.NewMap()}
	if reg != nil {
		c.sites = reg.CounterVec("ratte_coverage_hits_total", "site",
			"semantic-coverage hits by site (campaign union)")
	}
	return c
}

// newSeedMap returns a fresh per-seed coverage map, or nil when
// coverage is off — the nil map is inert, so the stages thread it
// unconditionally.
func (c *CampaignCoverage) newSeedMap() *coverage.Map {
	if c == nil {
		return nil
	}
	return coverage.NewMap()
}

// onVerdict folds one sequenced verdict's coverage summary into the
// union. The sequencer calls it exactly where it records the verdict,
// beside CampaignTelemetry.onVerdict.
func (c *CampaignCoverage) onVerdict(v Verdict) {
	if c == nil || len(v.Coverage) == 0 {
		return
	}
	c.mu.Lock()
	c.union.AddSummary(v.Coverage)
	c.mu.Unlock()
	if c.sites != nil {
		for site, n := range v.Coverage {
			c.sites.With(site).Add(n)
		}
	}
}

// AddSummary folds an externally produced name-keyed summary (a fleet
// shard's union, a journal's reconstruction) into the campaign union.
func (c *CampaignCoverage) AddSummary(sum map[string]uint64) {
	if c == nil || len(sum) == 0 {
		return
	}
	c.mu.Lock()
	c.union.AddSummary(sum)
	c.mu.Unlock()
	if c.sites != nil {
		for site, n := range sum {
			c.sites.With(site).Add(n)
		}
	}
}

// Summary returns the union as a name-keyed summary (nil when empty or
// when coverage is off).
func (c *CampaignCoverage) Summary() map[string]uint64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.union.Summary()
}

// Sites returns the number of distinct sites hit.
func (c *CampaignCoverage) Sites() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.union.Sites()
}

// Total returns the total hit count across all sites.
func (c *CampaignCoverage) Total() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.union.Total()
}

// Text renders the union as sorted "site count" lines — the payload of
// the -coverage-dump flag.
func (c *CampaignCoverage) Text() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.union.Text()
}
