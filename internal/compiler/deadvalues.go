package compiler

import (
	"fmt"

	"ratte/internal/bugs"
	"ratte/internal/ir"
)

// runRemoveDeadValues eliminates dead values module-wide: pure
// operations with no used results, and unreachable (never-called,
// non-entry) functions.
//
// Bug 3 (issue 82788): the buggy pass mishandles func.call operations
// with unused results and rejects the module — a wrong compile-time
// rejection of a valid program, observed by the non-crash oracle.
func runRemoveDeadValues(m *ir.Module, opts *Options) error {
	if opts.Bugs.Enabled(bugs.RemoveDeadValuesCall) {
		// The defective liveness bookkeeping trips over calls with a
		// dead result and aborts the pass. SSA ids are only unique per
		// function, so liveness is computed function-locally.
		for _, f := range funcsOf(m) {
			uses := useCounts(f)
			var rejection error
			f.Walk(func(op *ir.Operation) bool {
				if op.Name != "func.call" {
					return true
				}
				for _, r := range op.Results {
					if uses[r.ID] == 0 {
						rejection = fmt.Errorf("remove-dead-values: 'func.call' op result %%%s expected to be live", r.ID)
						return false
					}
				}
				return true
			})
			if rejection != nil {
				return rejection
			}
		}
	}

	// Correct behaviour: per-function DCE of pure ops.
	for _, f := range funcsOf(m) {
		removeDeadOps(f, func(op *ir.Operation) { opts.cover(covDeadRemove, op.Name) })
	}

	// Drop functions never referenced by a call and not plausibly an
	// entry point (we keep "main" and anything called).
	called := map[string]bool{"main": true}
	m.Walk(func(op *ir.Operation) bool {
		if op.Name == "func.call" || op.Name == "llvm.call" {
			if sym, ok := op.Attrs.Get("callee").(ir.SymbolRefAttr); ok {
				called[sym.Name] = true
			}
		}
		return true
	})
	var kept []*ir.Operation
	for _, op := range m.Body().Ops {
		if op.Name == "func.func" || op.Name == "llvm.func" {
			if !called[ir.FuncSymbol(op)] {
				opts.cover(covDeadRemove, op.Name)
				continue
			}
		}
		kept = append(kept, op)
	}
	m.Body().Ops = kept
	return nil
}
