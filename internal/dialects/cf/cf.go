// Package cf provides the control-flow dialect produced by lowering
// structured control flow: unconditional and conditional branches
// between blocks of a region.
package cf

import (
	"fmt"

	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/verify"
)

// Ops lists the cf-dialect operations.
var Ops = []string{"cf.br", "cf.cond_br"}

// Semantics returns the interpreter kernels for the cf dialect.
func Semantics() *interp.Dialect {
	d := interp.NewDialect("cf")

	d.RegisterTerminator("cf.br", func(ctx *interp.Context, op *ir.Operation) (interp.TermResult, error) {
		if len(op.Successors) != 1 {
			return interp.TermResult{}, fmt.Errorf("cf.br requires exactly one successor")
		}
		return interp.TermResult{Branch: &op.Successors[0]}, nil
	})

	d.RegisterTerminator("cf.cond_br", func(ctx *interp.Context, op *ir.Operation) (interp.TermResult, error) {
		if len(op.Successors) != 2 {
			return interp.TermResult{}, fmt.Errorf("cf.cond_br requires exactly two successors")
		}
		cond, err := ctx.GetInt(op.Operands[0])
		if err != nil {
			return interp.TermResult{}, err
		}
		if !cond.Defined() {
			// Branching on poison is undefined behaviour in the target;
			// the executor models it as a trap so the non-crash oracle
			// observes it, as a real run would via arbitrary behaviour.
			return interp.TermResult{}, &rtval.TrapError{Op: "cf.cond_br", Reason: "branch on a poison value"}
		}
		if cond.IsTrue() {
			return interp.TermResult{Branch: &op.Successors[0]}, nil
		}
		return interp.TermResult{Branch: &op.Successors[1]}, nil
	})

	return d
}

// Specs returns the static rules for the cf dialect.
func Specs() verify.Registry {
	return verify.Registry{
		"cf.br": {Terminator: true, Check: func(c *verify.Checker, op *ir.Operation) error {
			if len(op.Successors) != 1 {
				return verify.Errf(op, "cf.br requires exactly one successor")
			}
			return verify.WantOperands(op, 0)
		}},
		"cf.cond_br": {Terminator: true, Check: func(c *verify.Checker, op *ir.Operation) error {
			if len(op.Successors) != 2 {
				return verify.Errf(op, "cf.cond_br requires exactly two successors")
			}
			if err := verify.WantOperands(op, 1); err != nil {
				return err
			}
			return verify.WantType(op, op.Operands[0], ir.I1)
		}},
	}
}
