// Package scf provides the semantics and static rules of the scf
// (structured control flow) dialect: scf.if, scf.for and scf.yield.
//
// scf.if demonstrates the paper's "Regions" interaction pattern: the
// parent operation treats its regions as black boxes, interacting with
// whatever dialects appear inside them only through execution and the
// yielded results.
package scf

import (
	"fmt"

	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/scoped"
	"ratte/internal/verify"
)

// Ops lists the scf-dialect operations.
var Ops = []string{"scf.if", "scf.for", "scf.yield"}

// Semantics returns the interpreter kernels for the scf dialect.
func Semantics() *interp.Dialect {
	d := interp.NewDialect("scf")

	d.Register("scf.if", func(ctx *interp.Context, op *ir.Operation) error {
		cond, err := ctx.GetInt(op.Operands[0])
		if err != nil {
			return err
		}
		if !cond.Defined() {
			return &rtval.UBError{Op: "scf.if", Reason: "branching on a value that is not well-defined"}
		}
		region := op.Regions[0]
		if !cond.IsTrue() {
			region = op.Regions[1]
		}
		exit, err := ctx.RunRegion(region, nil, scoped.Standard)
		if err != nil {
			return err
		}
		if exit.Kind != interp.ExitYield {
			return fmt.Errorf("scf.if region must end in scf.yield")
		}
		if len(exit.Values) != len(op.Results) {
			return fmt.Errorf("scf.if region yielded %d values, op declares %d", len(exit.Values), len(op.Results))
		}
		for i, r := range op.Results {
			if err := ctx.Define(r, exit.Values[i]); err != nil {
				return err
			}
		}
		return nil
	})

	d.Register("scf.for", func(ctx *interp.Context, op *ir.Operation) error {
		// Operands: lb, ub, step, init... (loop-carried values).
		lb, err := ctx.GetInt(op.Operands[0])
		if err != nil {
			return err
		}
		ub, err := ctx.GetInt(op.Operands[1])
		if err != nil {
			return err
		}
		step, err := ctx.GetInt(op.Operands[2])
		if err != nil {
			return err
		}
		if step.Signed() <= 0 {
			return &rtval.UBError{Op: "scf.for", Reason: "loop step must be positive"}
		}
		carried := make([]rtval.Value, len(op.Operands)-3)
		for i, operand := range op.Operands[3:] {
			v, err := ctx.Get(operand)
			if err != nil {
				return err
			}
			carried[i] = v
		}
		// One args buffer for the whole loop: RunRegion copies the
		// values into the body's bindings, so refilling it per
		// iteration is safe and keeps the hot loop allocation-free.
		args := make([]rtval.Value, 1+len(carried))
		for iv := lb.Signed(); iv < ub.Signed(); iv += step.Signed() {
			args[0] = rtval.Box(rtval.NewIndex(iv))
			copy(args[1:], carried)
			exit, err := ctx.RunRegion(op.Regions[0], args, scoped.Standard)
			if err != nil {
				return err
			}
			if exit.Kind != interp.ExitYield {
				return fmt.Errorf("scf.for body must end in scf.yield")
			}
			if len(exit.Values) != len(carried) {
				return fmt.Errorf("scf.for body yielded %d values, loop carries %d", len(exit.Values), len(carried))
			}
			carried = exit.Values
		}
		for i, r := range op.Results {
			if err := ctx.Define(r, carried[i]); err != nil {
				return err
			}
		}
		return nil
	})

	d.RegisterTerminator("scf.yield", func(ctx *interp.Context, op *ir.Operation) (interp.TermResult, error) {
		// The per-depth reusable Exit keeps structured loops
		// allocation-free: scf.if and scf.for both consume the yielded
		// values before re-running any region at this depth.
		ex := ctx.YieldExit(len(op.Operands))
		for i, operand := range op.Operands {
			v, err := ctx.Get(operand)
			if err != nil {
				return interp.TermResult{}, err
			}
			ex.Values[i] = v
		}
		return interp.TermResult{Exit: ex}, nil
	})
	return d
}

// Specs returns the static rules for the scf dialect.
func Specs() verify.Registry {
	return verify.Registry{
		"scf.if":    {NumRegions: 2, Check: checkIf},
		"scf.for":   {NumRegions: 1, Check: checkFor},
		"scf.yield": {Terminator: true, Check: checkYield},
	}
}

func checkIf(c *verify.Checker, op *ir.Operation) error {
	if err := verify.WantOperands(op, 1); err != nil {
		return err
	}
	if err := verify.WantType(op, op.Operands[0], ir.I1); err != nil {
		return err
	}
	for i, r := range op.Regions {
		entry := r.Entry()
		if entry == nil {
			return verify.Errf(op, "scf.if region %d is empty", i)
		}
		if len(entry.Args) != 0 {
			return verify.Errf(op, "scf.if regions take no arguments")
		}
	}
	return nil
}

func checkFor(c *verify.Checker, op *ir.Operation) error {
	if len(op.Operands) < 3 {
		return verify.Errf(op, "scf.for requires lb, ub and step operands")
	}
	for i := 0; i < 3; i++ {
		if err := verify.WantType(op, op.Operands[i], ir.Index); err != nil {
			return err
		}
	}
	nCarried := len(op.Operands) - 3
	if len(op.Results) != nCarried {
		return verify.Errf(op, "scf.for carries %d values but declares %d results", nCarried, len(op.Results))
	}
	entry := op.Regions[0].Entry()
	if entry == nil {
		return verify.Errf(op, "scf.for body is empty")
	}
	if len(entry.Args) != 1+nCarried {
		return verify.Errf(op, "scf.for body must take the induction variable plus %d carried values", nCarried)
	}
	if err := verify.WantType(op, entry.Args[0], ir.Index); err != nil {
		return err
	}
	for i := 0; i < nCarried; i++ {
		if !ir.TypeEqual(entry.Args[1+i].Type, op.Operands[3+i].Type) {
			return verify.Errf(op, "carried value %d: body argument type %s does not match init type %s",
				i, entry.Args[1+i].Type, op.Operands[3+i].Type)
		}
		if !ir.TypeEqual(op.Results[i].Type, op.Operands[3+i].Type) {
			return verify.Errf(op, "carried value %d: result type %s does not match init type %s",
				i, op.Results[i].Type, op.Operands[3+i].Type)
		}
	}
	return nil
}

func checkYield(c *verify.Checker, op *ir.Operation) error {
	if err := verify.WantResults(op, 0); err != nil {
		return err
	}
	parent := c.Parent()
	if parent == nil {
		return verify.Errf(op, "scf.yield outside any region")
	}
	switch parent.Name {
	case "scf.if":
		if len(op.Operands) != len(parent.Results) {
			return verify.Errf(op, "yield of %d values, scf.if declares %d results",
				len(op.Operands), len(parent.Results))
		}
		for i, operand := range op.Operands {
			if !ir.TypeEqual(operand.Type, parent.Results[i].Type) {
				return verify.Errf(op, "yield operand %d has type %s, scf.if result is %s",
					i, operand.Type, parent.Results[i].Type)
			}
		}
	case "scf.for":
		nCarried := len(parent.Operands) - 3
		if len(op.Operands) != nCarried {
			return verify.Errf(op, "yield of %d values, scf.for carries %d",
				len(op.Operands), nCarried)
		}
		for i, operand := range op.Operands {
			if !ir.TypeEqual(operand.Type, parent.Operands[3+i].Type) {
				return verify.Errf(op, "yield operand %d has type %s, carried value is %s",
					i, operand.Type, parent.Operands[3+i].Type)
			}
		}
	default:
		return verify.Errf(op, "scf.yield must be enclosed by an scf operation, found %s", parent.Name)
	}
	return nil
}
