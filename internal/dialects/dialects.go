// Package dialects assembles the per-dialect semantics and static rules
// into the combinations Ratte uses: the source-level reference
// interpreter, the target-level executor, and the union of everything
// for mid-pipeline verification.
//
// This package is the composition point the paper's modularity story
// culminates in: adding a dialect means writing one new package with a
// Semantics() and a Specs() function and listing it here — no existing
// dialect changes.
package dialects

import (
	"sync"

	"ratte/internal/dialects/arith"
	"ratte/internal/dialects/cf"
	"ratte/internal/dialects/funcd"
	"ratte/internal/dialects/linalg"
	"ratte/internal/dialects/llvm"
	"ratte/internal/dialects/memref"
	"ratte/internal/dialects/scf"
	"ratte/internal/dialects/tensor"
	"ratte/internal/dialects/vector"
	"ratte/internal/interp"
	"ratte/internal/verify"
)

// Every composition below is immutable once built — dialect kernel
// bundles, composed interpreter registries and verifier spec registries
// are constructed exactly once (sync.OnceValue) and shared by all
// callers from then on. This is what makes interpreters and verifier
// runs cheap enough for the campaign hot loop: TestModule instantiates
// interpreters per configuration and the generator one per program, and
// none of those instantiations rebuilds a kernel or spec table.

var (
	sourceDialects = sync.OnceValue(func() []*interp.Dialect {
		return []*interp.Dialect{
			arith.Semantics(),
			funcd.Semantics(),
			scf.Semantics(),
			vector.Semantics(),
			tensor.Semantics(),
			linalg.Semantics(),
		}
	})
	targetDialects = sync.OnceValue(func() []*interp.Dialect {
		return []*interp.Dialect{
			llvm.Semantics(),
			cf.Semantics(),
			memref.Semantics(),
		}
	})
	sourceRegistry = sync.OnceValue(func() *interp.Registry {
		return interp.NewRegistry(sourceDialects()...)
	})
	executorRegistry = sync.OnceValue(func() *interp.Registry {
		all := append(append([]*interp.Dialect{}, sourceDialects()...), targetDialects()...)
		return interp.NewRegistry(all...)
	})
	sourceSpecs = sync.OnceValue(func() verify.Registry {
		return verify.Merge(
			arith.Specs(),
			funcd.Specs(),
			scf.Specs(),
			vector.Specs(),
			tensor.Specs(),
			linalg.Specs(),
		)
	})
	allSpecs = sync.OnceValue(func() verify.Registry {
		internal := verify.Registry{
			"ratte.generate_into": {NumRegions: 1},
		}
		return verify.Merge(
			sourceSpecs(),
			cf.Specs(),
			memref.Specs(),
			llvm.Specs(),
			internal,
		)
	})
)

// Source returns the dialect semantics of the source-level dialects
// (the ones Ratte's generators emit): arith, func, scf, vector, tensor,
// linalg. The slice is the caller's to extend (customdialect-style
// compositions append to it); the *interp.Dialect bundles themselves
// are shared and must not be mutated.
func Source() []*interp.Dialect {
	cached := sourceDialects()
	return append(make([]*interp.Dialect, 0, len(cached)), cached...)
}

// Target returns the dialect semantics of the lowered target level:
// llvm, cf and memref (plus func/vector for partially-lowered
// pipelines). The slice is a copy; the bundles are shared and must not
// be mutated.
func Target() []*interp.Dialect {
	cached := targetDialects()
	return append(make([]*interp.Dialect, 0, len(cached)), cached...)
}

// ExecutorRegistry returns the composed, shared kernel registry of
// every dialect (source + target levels).
func ExecutorRegistry() *interp.Registry { return executorRegistry() }

// NewReferenceInterpreter builds the reference interpreter over the
// source dialects — the validated semantics the paper ships as an
// independent artifact. The underlying kernel registry is memoized, so
// this is cheap to call per program or per worker. Its Context also
// serves as the generator's incremental-semantics engine.
func NewReferenceInterpreter() *interp.Interpreter {
	return sourceRegistry().NewInterpreter()
}

// NewCompiledReferenceInterpreter is NewReferenceInterpreter under its
// old name; it compiles nothing. Only bench/ calls it; ROADMAP item 1
// deletes it.
func NewCompiledReferenceInterpreter() *interp.Interpreter {
	return NewReferenceInterpreter()
}

// NewExecutor builds the executor for fully- or partially-lowered
// modules: every dialect is available, so pipelines may stop at any
// level (this mirrors mlir-cpu-runner accepting mixed modules as long
// as each op has a registered lowering or runtime implementation). The
// underlying kernel registry is memoized.
func NewExecutor() *interp.Interpreter {
	return executorRegistry().NewInterpreter()
}

// ExecutorProgramCache returns an accounting that reports zero
// compiles, as nothing compiles. Only bench/ calls it; ROADMAP item 1
// deletes it.
func ExecutorProgramCache() *interp.ProgramCache { return new(interp.ProgramCache) }

// SourceSpecs returns the static verification rules of the source
// dialects — the frontend verifier. The registry is memoized and
// shared: callers must treat it as read-only (verify.Merge copies, so
// composing over it is fine).
func SourceSpecs() verify.Registry {
	return sourceSpecs()
}

// AllSpecs returns the union of every dialect's rules — the verifier
// used between passes, where lowered and source ops coexist. It also
// registers the compiler-internal ratte.generate_into marker (the
// buffer form of tensor.generate between one-shot-bufferize and
// convert-linalg-to-loops). The registry is memoized and shared:
// callers must treat it as read-only.
func AllSpecs() verify.Registry {
	return allSpecs()
}

// SupportedSourceOps returns the names of every source-dialect op with
// both semantics and static rules — the paper's "43 operations across
// core dialects" inventory.
func SupportedSourceOps() []string {
	var ops []string
	ops = append(ops, arith.Ops...)
	ops = append(ops, funcd.Ops...)
	ops = append(ops, scf.Ops...)
	ops = append(ops, vector.Ops...)
	ops = append(ops, tensor.Ops...)
	ops = append(ops, linalg.Ops...)
	return ops
}
