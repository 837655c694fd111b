// The campaign engine: a unit source, one worker pool and one
// sequencer. Every campaign entry point — RunCampaignCtx,
// RunCampaignParallelCtx, RunCampaignRange, and the merge half of
// AssembleResult — is a thin call into this file.
//
//   - A unit is a contiguous seed range: one seed in classic and plan
//     mode, one mutation family of FamilySize seeds in family mode. The
//     unit source hands units out in seed order and skips any unit whose
//     seeds are all resumed.
//   - The pool runs whole units. With one worker it runs them inline on
//     the caller's goroutine; with N >= 2 workers, N goroutines each
//     generate and test whole units, at most half of them testing at
//     once.
//   - The sequencer is the only code that turns outcomes into the
//     result: it re-sequences them into seed order, splices resumed
//     verdicts in at their positions, records each verdict, feeds
//     telemetry and coverage, journals it and checks StopAtFirst.
//
// Because every outcome depends only on (config, seed) and the
// sequencer sees verdicts in seed order whatever the worker count, the
// result is byte-identical across worker counts.
package difftest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ratte/internal/compiler"
)

// RunCampaign generates Programs programs with Ratte's semantics-guided
// generator and differentially tests each one.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return RunCampaignCtx(context.Background(), cfg)
}

// RunCampaignCtx is RunCampaign under a caller context: cancelling ctx
// (a signal handler, a test deadline) stops the campaign after the
// in-flight seed and returns the partial result together with
// ctx.Err(), with every completed verdict already journaled — the
// partial run is resumable via CampaignConfig.Resumed.
func RunCampaignCtx(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	return RunCampaignParallelCtx(ctx, cfg, 1)
}

// RunCampaignParallel runs the same campaign as RunCampaign across a
// persistent pool of worker goroutines — the shape of the paper's
// overnight runs on an 8-core laptop.
func RunCampaignParallel(cfg CampaignConfig, workers int) (*CampaignResult, error) {
	return RunCampaignParallelCtx(context.Background(), cfg, workers)
}

// RunCampaignParallelCtx is RunCampaignParallel under a caller context.
// Results are byte-identical to RunCampaignCtx for any worker count;
// workers <= 1 runs the campaign on the caller's goroutine. Under
// StopAtFirst the first in-order detection cancels the speculative
// work still in flight. Cancelling ctx drains the pool and returns the
// partial, already-journaled result with ctx.Err().
func RunCampaignParallelCtx(parent context.Context, cfg CampaignConfig, workers int) (*CampaignResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Telemetry.begin(cfg.Programs)
	cfg.Telemetry.attachJournal(cfg.Journal)
	cfg.Telemetry.attachPlans(cfg.Plans)
	seq := newSequencer(&cfg)
	seq.advance() // a resumed prefix needs no units
	src := &unitSource{cfg: &cfg, step: max(cfg.FamilySize, 1)}

	if workers <= 1 {
		if !seq.done() {
			src.run(parent, func(first int, outs []seedOutcome) bool {
				seq.offer(first, outs)
				return !seq.done()
			})
		}
		return seq.result(parent)
	}

	// At most half the workers, rounded up, test at once; the others
	// generate. Letting every worker test raised the plans16 benchmark
	// workload's peak RSS by about a third at two workers on a 2-CPU
	// host, because each program in compile holds all its compiled
	// outputs.
	src.testSlots = make(chan struct{}, (workers+1)/2)
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	if seq.done() {
		cancel()
	}
	type unitDone struct {
		first int
		outs  []seedOutcome
	}
	// One slot per worker: a worker that finishes its unit while the
	// sequencer is busy can hand it over and claim the next one.
	finished := make(chan unitDone, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src.run(ctx, func(first int, outs []seedOutcome) bool {
				select {
				case finished <- unitDone{first, outs}:
					return true
				case <-ctx.Done():
					return false
				}
			})
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
	for u := range finished {
		if !seq.done() {
			seq.offer(u.first, u.outs)
		}
		if seq.done() {
			cancel() // the rest is speculative: stop it, then drain
		}
	}
	return seq.result(parent)
}

// unitSource hands out a campaign's units in seed order. It is safe
// for concurrent use.
type unitSource struct {
	cfg       *CampaignConfig
	step      int           // seeds per unit
	testSlots chan struct{} // bounds the units testing at once (nil: unbounded)
	next      atomic.Int64
}

// run claims units and hands each one's outcomes to emit, until the
// units run out, ctx is done, or emit returns false.
func (u *unitSource) run(ctx context.Context, emit func(first int, outs []seedOutcome) bool) {
	for ctx.Err() == nil {
		first := int(u.next.Add(int64(u.step))) - u.step
		if first >= u.cfg.Programs {
			return
		}
		count := min(u.step, u.cfg.Programs-first)
		if u.resumed(first, count) {
			continue
		}
		if !emit(first, runUnit(ctx, u.cfg, first, count, u.testSlots)) {
			return
		}
	}
}

// resumed reports whether every seed of the unit has a journaled
// verdict, so the unit never runs.
func (u *unitSource) resumed(first, count int) bool {
	for i := first; i < first+count; i++ {
		if _, ok := u.cfg.Resumed[u.cfg.Seed+int64(i)]; !ok {
			return false
		}
	}
	return true
}

// runUnit runs the unit of count seeds starting at campaign index
// first and returns one outcome per seed, in seed order. It generates
// the unit's program (a family's base program), then tests it holding
// a slot of testSlots, when that is non-nil.
func runUnit(ctx context.Context, cfg *CampaignConfig, first, count int, testSlots chan struct{}) []seedOutcome {
	seed := cfg.Seed + int64(first)
	cov := cfg.Coverage.newSeedMap()
	if cfg.FamilySize > 1 {
		cov = nil // family members share one program (see coverage.go)
	}
	prog, sf, err := generateStage(cfg, seed, cov)
	outs := make([]seedOutcome, count)
	switch {
	case err != nil:
		for j := range outs {
			outs[j].genErr = err
		}
		return outs
	case sf != nil:
		for j := range outs {
			outs[j] = failedOutcome(seed+int64(j), sf)
			outs[j].verdict.Coverage = cov.Summary()
		}
		return outs
	}
	if testSlots != nil {
		select {
		case testSlots <- struct{}{}:
			defer func() { <-testSlots }()
		case <-ctx.Done():
			for j := range outs {
				outs[j].aborted = true
			}
			return outs
		}
	}
	if cfg.FamilySize > 1 {
		return runFamily(ctx, cfg, seed, count, prog)
	}
	outs[0] = testSeed(ctx, cfg, seed, prog, cov)
	return outs
}

// sequencer turns per-seed outcomes, offered in any order, into the
// campaign result in seed order. It is not safe for concurrent use:
// the engine drives it from one goroutine, which is also what keeps
// the journal in seed order.
type sequencer struct {
	cfg     *CampaignConfig
	res     *CampaignResult
	next    int                 // campaign index of the next seed to sequence
	pending map[int]seedOutcome // offered outcomes at or after next

	// halted is set when sequencing stops short: StopAtFirst fired
	// (stopped), generation or the journal failed, or a seed was
	// aborted by cancellation.
	halted     bool
	stopped    bool
	genErr     error
	journalErr error
}

func newSequencer(cfg *CampaignConfig) *sequencer {
	res := newCampaignResult()
	if len(cfg.Plans) > 0 {
		res.Plans = len(cfg.Plans)
		res.PlanSet = compiler.PlanSetFingerprint(cfg.Plans)
	}
	return &sequencer{cfg: cfg, res: res, pending: make(map[int]seedOutcome)}
}

// done reports whether the sequencer needs no further outcomes.
func (s *sequencer) done() bool {
	return s.halted || s.next >= s.cfg.Programs
}

// offer hands over one unit's outcomes (outs[j] belongs to campaign
// index first+j) and sequences everything that is now in order.
func (s *sequencer) offer(first int, outs []seedOutcome) {
	for j, out := range outs {
		s.pending[first+j] = out
	}
	s.advance()
}

// advance sequences verdicts in seed order until the next one is
// neither resumed nor offered yet.
func (s *sequencer) advance() {
	cfg := s.cfg
	for !s.done() {
		v, resumed := cfg.Resumed[cfg.Seed+int64(s.next)]
		out, offered := s.pending[s.next]
		if !resumed && !offered {
			return
		}
		delete(s.pending, s.next)
		s.next++
		var det *Detection
		if !resumed {
			if out.genErr != nil || out.aborted {
				s.halted, s.genErr = true, out.genErr
				return
			}
			v, det = out.verdict, out.detection
		}
		isDetection := s.res.record(v, det)
		cfg.Telemetry.onVerdict(v)
		cfg.Coverage.onVerdict(v)
		if !resumed && cfg.Journal != nil {
			t0 := cfg.Telemetry.stageStart()
			err := cfg.Journal.Append(v)
			cfg.Telemetry.journalDone(t0)
			if err != nil {
				s.halted, s.journalErr = true, err
				return
			}
		}
		if isDetection && cfg.StopAtFirst {
			s.halted, s.stopped = true, true
			return
		}
	}
}

// result returns the campaign result and the error that ended it: a
// generation failure (with no result), a journal failure, or ctx's
// error when cancellation stopped the campaign short.
func (s *sequencer) result(ctx context.Context) (*CampaignResult, error) {
	switch {
	case s.genErr != nil:
		return nil, fmt.Errorf("difftest: generation failed: %w", s.genErr)
	case s.journalErr != nil:
		return s.res, fmt.Errorf("difftest: journal: %w", s.journalErr)
	case !s.stopped && s.next < s.cfg.Programs && ctx.Err() != nil:
		return s.res, ctx.Err()
	}
	return s.res, nil
}
