// Batched campaign execution over mutation families (ROADMAP item 4's
// third layer): instead of generating a fresh program per seed, the
// campaign partitions its seed space into families of FamilySize
// consecutive seeds. Each family generates ONE base program from its
// first seed, hoists the scalar constants of main into entry-function
// arguments, and then differentially tests every member on its own
// argument vector — member 0 on the original constants, later members
// on deterministically mutated ones. Batched execution (Batched=true)
// then shares everything that depends only on the module across the
// family: one verify, one pass-pipeline compilation per configuration,
// and one interp.Compile per compiled configuration, with members run
// through Interpreter.RunProgramArgs. The unbatched strategy runs the
// identical members through the full per-member pipeline and is the
// yardstick: verdicts, journals and ReportText are byte-identical
// between the two strategies, which the determinism tests and the CI
// step pin.
package difftest

import (
	"context"
	"math/rand"

	"ratte/internal/compiler"
	"ratte/internal/dialects"
	"ratte/internal/gen"
	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/rtval"
)

// maxFamilyParams caps how many constants are hoisted into entry
// arguments: enough to open a useful mutation space, small enough that
// argument vectors stay cheap to build and journal-independent.
const maxFamilyParams = 8

// familyMaxSteps bounds every family execution (reference and
// compiled): mutated constants can steer a program into far longer
// runs than the generator planned, and a member that blows the budget
// is skipped, not wedged.
const familyMaxSteps = 2_000_000

// famParam is one hoisted constant: its integer width and original
// value. Index-typed constants are never hoisted — they are loop
// bounds and memref/tensor coordinates, and mutating them changes the
// program's shape rather than its data.
type famParam struct {
	width uint
	orig  int64
}

// parameterizeMain clones m and hoists up to maxFamilyParams
// integer-typed arith.constant ops from main's entry block into entry
// arguments. The returned module is the family's shared test subject;
// params describes the argument vector. With nothing to hoist the
// clone is returned unchanged and params is empty (the family
// degenerates to identical members, which is still deterministic).
func parameterizeMain(m *ir.Module) (*ir.Module, []famParam) {
	pm := m.Clone()
	f := pm.Func("main")
	if f == nil || len(f.Regions) == 0 {
		return pm, nil
	}
	entry := f.Regions[0].Entry()
	if entry == nil || len(entry.Args) != 0 {
		return pm, nil
	}
	var params []famParam
	kept := entry.Ops[:0]
	for _, op := range entry.Ops {
		if len(params) < maxFamilyParams && op.Name == "arith.constant" &&
			len(op.Results) == 1 && len(op.Regions) == 0 {
			if it, ok := op.Results[0].Type.(ir.IntegerType); ok {
				if va, ok := op.Attrs.Get("value").(ir.IntegerAttr); ok {
					entry.Args = append(entry.Args, op.Results[0])
					params = append(params, famParam{width: it.Width, orig: va.Value})
					continue
				}
			}
		}
		kept = append(kept, op)
	}
	entry.Ops = kept
	if len(params) == 0 {
		return pm, nil
	}
	ft, err := ir.FuncType(f)
	if err != nil {
		return m.Clone(), nil
	}
	ins := append([]ir.Type(nil), ft.Inputs...)
	for _, a := range entry.Args {
		ins = append(ins, a.Type)
	}
	f.Attrs.Set("function_type", ir.TypeAttrOf(ir.FuncOf(ins, ft.Results)))
	return pm, params
}

// familyArgs builds one member's argument vector. Member 0 replays the
// base program exactly (the original constants); later members draw
// mutated values from a generator seeded with the member's own seed,
// so a member's inputs depend only on (params, seed) — never on which
// engine or strategy runs it.
func familyArgs(params []famParam, seed int64, member int) []rtval.Value {
	if len(params) == 0 {
		return nil
	}
	args := make([]rtval.Value, len(params))
	if member == 0 {
		for i, p := range params {
			args[i] = rtval.Box(rtval.NewInt(p.width, p.orig))
		}
		return args
	}
	rng := rand.New(rand.NewSource(seed))
	for i, p := range params {
		args[i] = rtval.Box(rtval.NewInt(p.width, mutateParam(rng, p.width)))
	}
	return args
}

// mutateParam draws one mutated constant: half the draws stay near
// zero (the UB-edge and interning-relevant range — zero divisors,
// degenerate shifts), half are full-width bit patterns.
func mutateParam(rng *rand.Rand, width uint) int64 {
	if width == 1 {
		return int64(rng.Intn(2))
	}
	if rng.Intn(2) == 0 {
		return rng.Int63n(33) - 16
	}
	return int64(rng.Uint64())
}

// famMember is one member's in-flight state while the family runs.
type famMember struct {
	seed int64
	args []rtval.Value
	ref  string
	// done short-circuits the remaining stages once the member has a
	// verdict (skipped, contained failure, or aborted).
	done bool
}

// runFamily differentially tests one mutation family of count members
// whose first member's seed is baseSeed, generated as prog, and returns
// one seedOutcome per member, in member order. The verdict stream is a
// function of (config, seeds) only: the batched and unbatched
// strategies share every decision point and differ solely in whether
// module-level work products are computed once or once per member.
func runFamily(ctx context.Context, cfg *CampaignConfig, baseSeed int64, count int, prog *gen.Program) []seedOutcome {
	outs := make([]seedOutcome, count)

	// Parameterize once; a panic here is a harness bug and fails the
	// whole family, exactly like a generation panic.
	var pm *ir.Module
	var params []famParam
	if sf := guard(StageGenerate, baseSeed, prog.Module, func() {
		pm, params = parameterizeMain(prog.Module)
	}); sf != nil {
		for j := range outs {
			outs[j] = failedOutcome(baseSeed+int64(j), sf)
		}
		return outs
	}

	// Reference stage, per member: the Ratte semantics run on the
	// member's inputs establishes its expected output. A member whose
	// reference run fails (mutated constants reached UB, a trap, or the
	// step budget) is recorded as skipped: with no defined reference
	// behaviour there is nothing to differentially test.
	members := make([]famMember, count)
	for j := range members {
		mem := &members[j]
		mem.seed = baseSeed + int64(j)
		if ctx.Err() != nil {
			outs[j] = seedOutcome{aborted: true}
			mem.done = true
			continue
		}
		mem.args = familyArgs(params, mem.seed, j)
		var refOut string
		var refErr error
		t0 := cfg.Telemetry.stageStart()
		sf := guard(StageReference, mem.seed, pm, func() {
			in := dialects.NewCompiledReferenceInterpreter()
			in.MaxSteps = familyMaxSteps
			res, err := in.RunArgs(pm, "main", mem.args)
			if err != nil {
				refErr = err
				return
			}
			refOut = res.Output
		})
		cfg.Telemetry.stageDone(mem.seed, StageReference, t0, spanOutcome(sf, refErr))
		switch {
		case sf != nil:
			outs[j] = failedOutcome(mem.seed, sf)
			mem.done = true
		case refErr != nil:
			outs[j] = seedOutcome{verdict: Verdict{Seed: mem.seed, Kind: VerdictSkipped, Attempts: 1}}
			mem.done = true
		default:
			mem.ref = refOut
		}
	}

	testMembers(ctx, cfg, pm, members, outs)
	return outs
}

// testMembers runs the verify, compile, interpret and compare stages
// for every live member. The batched strategy computes the module-level
// work products — verification, one pass-pipeline compilation per
// configuration and one interp.Compile per compiled configuration —
// at the first live member and reuses them for the rest, running each
// member through RunProgramArgs. The unbatched strategy, the yardstick
// batching is measured against, recomputes all of it per member.
// Reusing a shared stage's failure keeps member verdicts identical
// between the two: a deterministic panic in a shared stage would hit
// every member's private run of that stage too.
func testMembers(ctx context.Context, cfg *CampaignConfig, pm *ir.Module, members []famMember, outs []seedOutcome) {
	var (
		cres   []compiler.ConfigResult
		verr   error
		shared *StageFailure
		progs  []*interp.CompiledProgram
		reuse  bool
	)
	for j := range members {
		mem := &members[j]
		if mem.done {
			continue
		}
		if ctx.Err() != nil {
			outs[j] = seedOutcome{aborted: true}
			continue
		}
		if !reuse {
			cres, verr, shared = verifyCompile(cfg, mem.seed, pm, &compiler.Options{Bugs: cfg.Bugs})
			progs = make([]*interp.CompiledProgram, len(cres))
			reuse = cfg.Batched
		}
		if shared != nil {
			outs[j] = failedOutcome(mem.seed, shared)
			continue
		}
		var lrs []LevelResult
		if verr != nil {
			lrs = rejected(cfg, verr)
		} else {
			var sf *StageFailure
			lrs, sf = interpretStage(cfg, mem.seed, pm, cres, func(i int, m *ir.Module) (*interp.Result, error) {
				ex := dialects.NewExecutor()
				ex.MaxSteps = familyMaxSteps
				ex.Metrics = cfg.Telemetry.interpMetrics()
				if !cfg.Batched {
					return ex.RunArgs(m, "main", mem.args)
				}
				// Compiled lazily inside the member's guard, so a
				// deterministic compile panic lands on each member
				// exactly as it would unbatched.
				if progs[i] == nil {
					progs[i] = interp.Compile(dialects.ExecutorRegistry(), m)
				}
				return ex.RunProgramArgs(progs[i], "main", mem.args)
			})
			if sf != nil {
				outs[j] = failedOutcome(mem.seed, sf)
				continue
			}
		}
		det := &Detection{Seed: mem.seed, Program: pm, Expected: mem.ref, Report: newReport(cfg.Preset, mem.ref, lrs)}
		v, sf := compareStage(cfg, pm, det)
		if sf != nil {
			outs[j] = failedOutcome(mem.seed, sf)
			continue
		}
		v.Attempts = 1
		outs[j] = seedOutcome{verdict: v}
		if v.Kind == VerdictDetection {
			outs[j].detection = det
		}
	}
}
