// Package compiler is the system under test: a multi-level pass-pipeline
// compiler over Ratte's IR, structurally mirroring the production MLIR
// stack the paper fuzzes — a frontend verifier, optimisation passes
// (canonicalize, cse, remove-dead-values) that do not change the
// abstraction level, and lowering passes (arith-expand, bufferisation,
// linalg-to-loops, scf-to-cf, the convert-*-to-llvm family) that take
// the module down to the executable llvm target dialect.
//
// Every pass accepts an Options carrying the set of injected bugs
// (package bugs); with the empty set the compiler is intended to be
// correct, and the differential test-suite asserts it is.
package compiler

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ratte/internal/bugs"
	"ratte/internal/coverage"
	"ratte/internal/dialects"
	"ratte/internal/faultinject"
	"ratte/internal/ir"
	"ratte/internal/verify"
)

// Options configures a compilation.
type Options struct {
	// Bugs selects which injected defects are active.
	Bugs bugs.Set
	// VerifyBetweenPasses re-runs the verifier after every pass,
	// catching passes that produce invalid IR.
	VerifyBetweenPasses bool
	// PrintAfterAll, when non-nil, receives the module's textual form
	// after every pass (the -print-ir-after-all debugging workflow).
	PrintAfterAll io.Writer
	// Ctx, when non-nil, is checked between passes: a cancelled or
	// expired context stops the pipeline with an error wrapping
	// Ctx.Err(), which is how the campaign engine enforces per-program
	// wall-clock budgets over compilation.
	Ctx context.Context
	// Faults, when non-nil, is the deterministic fault-injection layer
	// (sites compiler/pass and compiler/registry); production
	// compilations leave it nil and pay only a nil check.
	Faults *faultinject.Injector
	// SkipVerify omits the frontend verification in CompileConfigsOpts
	// for callers that have already verified the module (the campaign
	// engine verifies in its own guarded stage).
	SkipVerify bool
	// Coverage, when non-nil, receives one hit per pass execution,
	// per pass×op-kind rewrite application and per legality branch —
	// the semantic-coverage channel (sites under "compiler/...").
	// Observation only: the compiled output is byte-identical with it
	// nil or set, and the nil path costs a single pointer check.
	Coverage *coverage.Map
}

// cover records one coverage hit in the family f under key when
// coverage is enabled. The nil check precedes the keyed lookup so the
// disabled path performs no map access and no allocation (the
// compiler alloc guard pins this).
func (o *Options) cover(f *coverage.Keyed, key string) {
	if o != nil && o.Coverage != nil {
		o.Coverage.Hit(f.Site(key))
	}
}

// Pass transforms a module in place.
type Pass interface {
	Name() string
	Run(m *ir.Module, opts *Options) error
}

// passFunc adapts a function to the Pass interface.
type passFunc struct {
	name string
	run  func(m *ir.Module, opts *Options) error
}

func (p passFunc) Name() string                          { return p.name }
func (p passFunc) Run(m *ir.Module, opts *Options) error { return p.run(m, opts) }
func newPass(name string, run func(*ir.Module, *Options) error) Pass {
	return passFunc{name: name, run: run}
}

// PassError reports which pass failed; a PassError from a pipeline is a
// compile-time rejection of the program.
type PassError struct {
	Pass string
	Err  error
}

func (e *PassError) Error() string { return "pass " + e.Pass + ": " + e.Err.Error() }
func (e *PassError) Unwrap() error { return e.Err }

// registry maps pass names (the mlir-opt flag spelling) to constructors.
var registry = map[string]func() Pass{
	"canonicalize":            func() Pass { return newPass("canonicalize", runCanonicalize) },
	"cse":                     func() Pass { return newPass("cse", runCSE) },
	"remove-dead-values":      func() Pass { return newPass("remove-dead-values", runRemoveDeadValues) },
	"arith-expand":            func() Pass { return newPass("arith-expand", runArithExpand) },
	"one-shot-bufferize":      func() Pass { return newPass("one-shot-bufferize", runBufferize) },
	"convert-linalg-to-loops": func() Pass { return newPass("convert-linalg-to-loops", runLinalgToLoops) },
	"convert-scf-to-cf":       func() Pass { return newPass("convert-scf-to-cf", runSCFToCF) },
	"convert-arith-to-llvm":   func() Pass { return newPass("convert-arith-to-llvm", runArithToLLVM) },
	"convert-vector-to-llvm":  func() Pass { return newPass("convert-vector-to-llvm", runVectorToLLVM) },
	"convert-func-to-llvm":    func() Pass { return newPass("convert-func-to-llvm", runFuncToLLVM) },
}

// PassNames returns the registered pass names.
func PassNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	return names
}

// Pipeline is an ordered list of passes.
type Pipeline struct {
	passes []Pass
}

// NewPipeline resolves pass names into a pipeline. Names follow the
// mlir-opt flag spelling, e.g. "arith-expand".
func NewPipeline(names ...string) (*Pipeline, error) {
	p := &Pipeline{}
	for _, n := range names {
		mk, ok := registry[strings.TrimPrefix(n, "-")]
		if !ok {
			return nil, fmt.Errorf("compiler: unknown pass %q", n)
		}
		p.passes = append(p.passes, mk())
	}
	return p, nil
}

// Names returns the pipeline's pass names in order.
func (p *Pipeline) Names() []string {
	ns := make([]string, len(p.passes))
	for i, pass := range p.passes {
		ns[i] = pass.Name()
	}
	return ns
}

// Run executes the pipeline on a module in place. The input module must
// already have been verified by the caller (Compile does this).
func (p *Pipeline) Run(m *ir.Module, opts *Options) error {
	if opts == nil {
		opts = &Options{}
	}
	for _, pass := range p.passes {
		if err := runPass(pass, m, opts); err != nil {
			return err
		}
	}
	return nil
}

// runPass executes one pass with the pipeline's error wrapping and the
// PrintAfterAll / VerifyBetweenPasses debugging hooks. The context
// check between passes is the pipeline's cooperative cancellation
// point: a pass runs to completion, but an expired per-program budget
// stops the pipeline before the next one starts.
func runPass(pass Pass, m *ir.Module, opts *Options) error {
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return &PassError{Pass: pass.Name(), Err: fmt.Errorf("compiler: cancelled: %w", err)}
		}
	}
	if opts.Faults != nil {
		if err := opts.Faults.Point(faultinject.SiteCompilerPass); err != nil {
			return &PassError{Pass: pass.Name(), Err: err}
		}
	}
	opts.cover(covPassRuns, pass.Name())
	if err := pass.Run(m, opts); err != nil {
		return &PassError{Pass: pass.Name(), Err: err}
	}
	if opts.PrintAfterAll != nil {
		fmt.Fprintf(opts.PrintAfterAll, "// ----- IR after %s -----\n%s\n", pass.Name(), ir.Print(m))
	}
	if opts.VerifyBetweenPasses {
		if err := verify.Module(m, dialects.AllSpecs()); err != nil {
			return &PassError{Pass: pass.Name(), Err: fmt.Errorf("pass produced invalid IR: %w", err)}
		}
	}
	return nil
}

// OptLevel selects how many optimisation passes run before lowering,
// the axis the DT-O (differential-across-optimisation-levels) oracle
// varies. Lowering passes run at every level — which is precisely why
// DT-O cannot see lowering bugs.
type OptLevel int

// The supported optimisation levels.
const (
	O0 OptLevel = 0 // lowering only
	O1 OptLevel = 1 // canonicalize + cse before lowering
	O2 OptLevel = 2 // O1 plus remove-dead-values and a second canonicalize
)

// OptLevels lists all levels, for DT-O sweeps.
var OptLevels = []OptLevel{O0, O1, O2}

// PipelineFor builds the pass list for a generator preset (paper
// Table 2 / Appendix A.5.4) at the given optimisation level.
//
// Presets: "ariths" programs use {arith, scf, func, vector};
// "linalggeneric" adds linalg and tensor; "tensor" uses tensor-heavy
// programs. All pipelines target the executable llvm level.
func PipelineFor(preset string, level OptLevel) ([]string, error) {
	return PipelineForConfig(preset, level, false)
}

// PipelineForConfig additionally selects the lowering strategy:
// skipExpand omits arith-expand, leaving the rounded divisions to
// convert-arith-to-llvm's direct conversion patterns — the second
// lowering path production MLIR offers (and where the paper's bug 6
// lives). Both strategies run the lowering at every optimisation
// level, which is why cross-optimisation-level testing (DT-O) cannot
// observe lowering defects.
func PipelineForConfig(preset string, level OptLevel, skipExpand bool) ([]string, error) {
	var opt []string
	switch level {
	case O0:
	case O1:
		opt = []string{"canonicalize", "cse"}
	case O2:
		opt = []string{"canonicalize", "cse", "remove-dead-values", "canonicalize"}
	default:
		return nil, fmt.Errorf("compiler: unknown optimisation level %d", int(level))
	}
	lowerScalar := []string{"arith-expand", "convert-scf-to-cf", "convert-arith-to-llvm", "convert-vector-to-llvm", "convert-func-to-llvm"}
	if skipExpand {
		lowerScalar = lowerScalar[1:]
	}
	lowerTensor := append([]string{"one-shot-bufferize", "convert-linalg-to-loops"}, lowerScalar...)
	switch preset {
	case "ariths":
		return append(opt, lowerScalar...), nil
	case "linalggeneric", "tensor", "all":
		return append(opt, lowerTensor...), nil
	}
	return nil, fmt.Errorf("compiler: unknown preset %q", preset)
}

// Config identifies one build configuration under differential test: an
// optimisation level plus a lowering strategy. The paper applies Ratte
// to several end-to-end compilations (§4.1); varying the lowering
// strategy is what reaches both homes of the ceildivsi defects
// (arith-expand and the direct convert-arith-to-llvm patterns).
type Config struct {
	Level           OptLevel
	SkipArithExpand bool
}

func (c Config) String() string {
	s := fmt.Sprintf("O%d", int(c.Level))
	if c.SkipArithExpand {
		s += "-noexpand"
	}
	return s
}

// ConfigResult is one configuration's outcome under CompileConfigs:
// either the lowered module or a compile-time rejection.
type ConfigResult struct {
	Module *ir.Module
	Err    error
}

// CompileConfigs compiles m under every given configuration of one
// (possibly bug-injected) compiler build, producing exactly the modules
// (or rejections) that per-configuration Compiler.Compile calls would,
// but sharing the work the configurations have in common:
//
//   - the frontend verification of m runs once, not once per config;
//   - the configurations' pass lists are arranged into a prefix tree
//     and each shared prefix (e.g. O1's canonicalize+cse, which is also
//     how O2 and O1-noexpand begin) runs once, with one module Clone
//     per divergence point instead of one full pipeline per config.
//
// Passes are deterministic module transforms (injected bugs included),
// so running a shared prefix once and forking is observationally
// identical to recompiling from scratch — which the difftest
// determinism suite asserts. The input module is not modified.
func CompileConfigs(m *ir.Module, preset string, bugSet bugs.Set, configs []Config) []ConfigResult {
	return CompileConfigsOpts(m, preset, &Options{Bugs: bugSet}, configs)
}

// CompileConfigsOpts is CompileConfigs with full Options control: the
// campaign engine uses it to thread its per-program context deadline
// and fault injector through every pass, and to skip the frontend
// verification it has already run in its own guarded stage.
func CompileConfigsOpts(m *ir.Module, preset string, opts *Options, configs []Config) []ConfigResult {
	if opts == nil {
		opts = &Options{}
	}
	results := make([]ConfigResult, len(configs))
	if !opts.SkipVerify {
		if err := verify.Module(m, dialects.SourceSpecs()); err != nil {
			for i := range results {
				results[i].Err = err
			}
			return results
		}
	}
	jobs := make([]treeJob, 0, len(configs))
	for i, c := range configs {
		names, err := PipelineForConfig(preset, c.Level, c.SkipArithExpand)
		if err != nil {
			results[i].Err = err
			continue
		}
		jobs = append(jobs, treeJob{idx: i, passes: names})
	}
	compileTree(m, jobs, opts, results)
	return results
}

// treeJob pairs one result slot with its full pass list; compileTree
// shares work across jobs by arranging the lists into a prefix tree.
type treeJob struct {
	idx    int
	passes []string
}

// compileTree runs every job's pass list over m and writes each job's
// lowered module (or first pass failure) into results[job.idx]. Jobs
// are arranged into a prefix tree: each shared prefix runs once, with
// one module Clone per divergence point instead of one full pipeline
// per job. Passes are deterministic module transforms (injected bugs
// included), so forking at divergence points is observationally
// identical to recompiling each job from scratch. m is not modified.
//
// This is the sharing core behind both CompileConfigsOpts (the four
// fixed build configurations) and CompilePlansOpts (N sampled plans).
func compileTree(m *ir.Module, jobs []treeJob, opts *Options, results []ConfigResult) {
	// rec runs the jobs' remaining passes over the prefix tree. owned
	// marks modules this call may mutate freely; the caller's module is
	// not owned, so every fork from it clones first.
	var rec func(m *ir.Module, jobs []treeJob, depth int, owned bool)
	rec = func(m *ir.Module, jobs []treeJob, depth int, owned bool) {
		var done []treeJob
		var order []string
		groups := make(map[string][]treeJob)
		for _, j := range jobs {
			if depth == len(j.passes) {
				done = append(done, j)
				continue
			}
			name := j.passes[depth]
			if _, ok := groups[name]; !ok {
				order = append(order, name)
			}
			groups[name] = append(groups[name], j)
		}
		if len(done) > 0 {
			dm := m
			if !owned || len(order) > 0 {
				dm = m.Clone()
			}
			results[done[0].idx].Module = dm
			for _, j := range done[1:] {
				// Distinct jobs with identical pipelines still get
				// independent modules, matching per-job compilation.
				results[j.idx].Module = dm.Clone()
			}
		}
		for i, name := range order {
			g := groups[name]
			gm := m
			if !(owned && i == len(order)-1) {
				gm = m.Clone()
			}
			if opts.Faults != nil {
				if err := opts.Faults.Point(faultinject.SiteCompilerRegistry); err != nil {
					for _, j := range g {
						results[j.idx].Err = &PassError{Pass: name, Err: err}
					}
					continue
				}
			}
			mk, ok := registry[name]
			if !ok {
				for _, j := range g {
					results[j.idx].Err = fmt.Errorf("compiler: unknown pass %q", name)
				}
				continue
			}
			if err := runPass(mk(), gm, opts); err != nil {
				for _, j := range g {
					results[j.idx].Err = err
				}
				continue
			}
			rec(gm, g, depth+1, true)
		}
	}
	rec(m, jobs, 0, false)
}

// Compiler compiles source-level modules down to the llvm target level,
// the way the paper's experiments drive mlir-opt.
type Compiler struct {
	// Bugs selects the injected defects active in this compiler build.
	Bugs bugs.Set
	// Level is the optimisation level.
	Level OptLevel
	// SkipArithExpand selects the alternative lowering strategy that
	// relies on convert-arith-to-llvm's direct division conversions.
	SkipArithExpand bool
	// VerifyBetweenPasses enables inter-pass verification.
	VerifyBetweenPasses bool
}

// Compile verifies m against the source dialect rules, runs the preset's
// pipeline at the configured level, and returns the lowered module. The
// input module is not modified. A returned error is a compile-time
// rejection (frontend verification failure or pass failure).
func (c *Compiler) Compile(m *ir.Module, preset string) (*ir.Module, error) {
	if err := verify.Module(m, dialects.SourceSpecs()); err != nil {
		return nil, err
	}
	names, err := PipelineForConfig(preset, c.Level, c.SkipArithExpand)
	if err != nil {
		return nil, err
	}
	pipe, err := NewPipeline(names...)
	if err != nil {
		return nil, err
	}
	out := m.Clone()
	opts := &Options{Bugs: c.Bugs, VerifyBetweenPasses: c.VerifyBetweenPasses}
	if err := pipe.Run(out, opts); err != nil {
		return nil, err
	}
	return out, nil
}
