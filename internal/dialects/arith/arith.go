// Package arith provides the semantics, static rules and metadata of
// the arith dialect: integer and index arithmetic over signless
// two's-complement values, following the LLVM-style semantics the Ratte
// work's specification fixes established (division by zero, signed
// overflow of the division family, and shifts past the bit width are
// undefined behaviour; plain add/sub/mul wrap).
package arith

import (
	"fmt"

	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/rtval"
)

// Ops lists every arith operation Ratte supports, mirroring the paper's
// Appendix A.6 inventory.
var Ops = []string{
	"arith.constant",
	"arith.addi", "arith.subi", "arith.muli",
	"arith.andi", "arith.ori", "arith.xori",
	"arith.divsi", "arith.divui", "arith.remsi", "arith.remui",
	"arith.ceildivsi", "arith.ceildivui", "arith.floordivsi",
	"arith.shli", "arith.shrsi", "arith.shrui",
	"arith.maxsi", "arith.maxui", "arith.minsi", "arith.minui",
	"arith.cmpi", "arith.select",
	"arith.addui_extended", "arith.mulsi_extended", "arith.mului_extended",
	"arith.extsi", "arith.extui", "arith.trunci",
	"arith.index_cast", "arith.index_castui",
}

// Semantics returns the interpreter kernels for the arith dialect.
func Semantics() *interp.Dialect {
	d := interp.NewDialect("arith")

	d.Register("arith.constant", constantKernel)

	binPure := func(name string, f func(a, b rtval.Int) rtval.Int) {
		d.Register(name, func(ctx *interp.Context, op *ir.Operation) error {
			a, b, err := binaryOperands(ctx, op)
			if err != nil {
				return err
			}
			return ctx.Define(op.Results[0], rtval.Box(f(a, b)))
		})
	}
	binErr := func(name string, f func(a, b rtval.Int) (rtval.Int, error)) {
		d.Register(name, func(ctx *interp.Context, op *ir.Operation) error {
			a, b, err := binaryOperands(ctx, op)
			if err != nil {
				return err
			}
			r, err := f(a, b)
			if err != nil {
				return err
			}
			return ctx.Define(op.Results[0], rtval.Box(r))
		})
	}

	binPure("arith.addi", rtval.Int.Add)
	binPure("arith.subi", rtval.Int.Sub)
	binPure("arith.muli", rtval.Int.Mul)
	binPure("arith.andi", rtval.Int.And)
	binPure("arith.ori", rtval.Int.Or)
	binPure("arith.xori", rtval.Int.Xor)
	binPure("arith.maxsi", rtval.Int.MaxS)
	binPure("arith.maxui", rtval.Int.MaxU)
	binPure("arith.minsi", rtval.Int.MinS)
	binPure("arith.minui", rtval.Int.MinU)

	binErr("arith.divsi", rtval.Int.DivS)
	binErr("arith.divui", rtval.Int.DivU)
	binErr("arith.remsi", rtval.Int.RemS)
	binErr("arith.remui", rtval.Int.RemU)
	binErr("arith.ceildivsi", rtval.Int.CeilDivS)
	binErr("arith.ceildivui", rtval.Int.CeilDivU)
	binErr("arith.floordivsi", rtval.Int.FloorDivS)
	binErr("arith.shli", rtval.Int.ShL)
	binErr("arith.shrsi", rtval.Int.ShRS)
	binErr("arith.shrui", rtval.Int.ShRU)

	d.Register("arith.cmpi", cmpiKernel)
	d.Register("arith.select", selectKernel)

	d.Register("arith.addui_extended", extendedKernel(rtval.Int.AddUIExtended))
	d.Register("arith.mulsi_extended", extendedKernel(rtval.Int.MulSIExtended))
	d.Register("arith.mului_extended", extendedKernel(rtval.Int.MulUIExtended))

	cast := func(name string, f func(a rtval.Int, to ir.Type) rtval.Int) {
		d.Register(name, castKernel(f))
	}
	cast("arith.extsi", func(a rtval.Int, to ir.Type) rtval.Int {
		w, _ := ir.BitWidth(to)
		return a.ExtS(w)
	})
	cast("arith.extui", func(a rtval.Int, to ir.Type) rtval.Int {
		w, _ := ir.BitWidth(to)
		return a.ExtU(w)
	})
	cast("arith.trunci", func(a rtval.Int, to ir.Type) rtval.Int {
		w, _ := ir.BitWidth(to)
		return a.Trunc(w)
	})
	cast("arith.index_cast", rtval.Int.IndexCast)
	cast("arith.index_castui", rtval.Int.IndexCastU)

	return d
}

func binaryOperands(ctx *interp.Context, op *ir.Operation) (a, b rtval.Int, err error) {
	if len(op.Operands) != 2 || len(op.Results) != 1 {
		return rtval.Int{}, rtval.Int{}, fmt.Errorf("malformed binary arith op")
	}
	if a, err = ctx.GetInt(op.Operands[0]); err != nil {
		return
	}
	b, err = ctx.GetInt(op.Operands[1])
	return
}

func constantKernel(ctx *interp.Context, op *ir.Operation) error {
	attr := op.Attrs.Get("value")
	switch v := attr.(type) {
	case ir.IntegerAttr:
		var val rtval.Int
		switch t := op.Results[0].Type.(type) {
		case ir.IntegerType:
			val = rtval.NewInt(t.Width, v.Value)
		case ir.IndexType:
			val = rtval.NewIndex(v.Value)
		default:
			return fmt.Errorf("integer constant with non-scalar result type %s", t)
		}
		return ctx.Define(op.Results[0], rtval.Box(val))
	case ir.DenseIntAttr:
		t, err := rtval.FromAttr(v)
		if err != nil {
			return err
		}
		return ctx.Define(op.Results[0], t)
	}
	return fmt.Errorf("constant requires an integer or dense value attribute")
}

func cmpiKernel(ctx *interp.Context, op *ir.Operation) error {
	a, b, err := binaryOperands(ctx, op)
	if err != nil {
		return err
	}
	p, ok := op.Attrs.IntValueOf("predicate")
	if !ok {
		return fmt.Errorf("cmpi requires a predicate attribute")
	}
	r, err := a.Cmp(rtval.CmpPredicate(p), b)
	if err != nil {
		return err
	}
	return ctx.Define(op.Results[0], rtval.Box(r))
}

func selectKernel(ctx *interp.Context, op *ir.Operation) error {
	if len(op.Operands) != 3 {
		return fmt.Errorf("select requires 3 operands")
	}
	cond, err := ctx.GetInt(op.Operands[0])
	if err != nil {
		return err
	}
	// Select works over any value type, including tensors (the paper's
	// parameter-interface interaction): both branches are evaluated
	// values already, so selection is a pure choice.
	t, err := ctx.Get(op.Operands[1])
	if err != nil {
		return err
	}
	f, err := ctx.Get(op.Operands[2])
	if err != nil {
		return err
	}
	if !cond.Defined() {
		return &rtval.UBError{Op: "arith.select", Reason: "branching on a value that is not well-defined"}
	}
	if cond.IsTrue() {
		return ctx.Define(op.Results[0], t)
	}
	return ctx.Define(op.Results[0], f)
}

func extendedKernel(f func(a, b rtval.Int) (rtval.Int, rtval.Int)) interp.Kernel {
	return func(ctx *interp.Context, op *ir.Operation) error {
		a, err := ctx.GetInt(op.Operands[0])
		if err != nil {
			return err
		}
		b, err := ctx.GetInt(op.Operands[1])
		if err != nil {
			return err
		}
		lo, hi := f(a, b)
		if err := ctx.Define(op.Results[0], rtval.Box(lo)); err != nil {
			return err
		}
		return ctx.Define(op.Results[1], rtval.Box(hi))
	}
}

func castKernel(f func(a rtval.Int, to ir.Type) rtval.Int) interp.Kernel {
	return func(ctx *interp.Context, op *ir.Operation) error {
		a, err := ctx.GetInt(op.Operands[0])
		if err != nil {
			return err
		}
		return ctx.Define(op.Results[0], rtval.Box(f(a, op.Results[0].Type)))
	}
}
