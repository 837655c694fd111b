// Package llvm provides Ratte's executable target dialect: the lowered
// form every tested compilation pipeline bottoms out in, standing in
// for the production stack's llvm dialect + mlir-cpu-runner.
//
// Unlike the reference semantics (which reject undefined behaviour
// eagerly), this dialect models what LLVM-compiled code does on real
// hardware:
//
//   - signed/unsigned division or remainder by zero traps (SIGFPE on
//     x86), as does INT_MIN / -1 (x86 idiv overflow);
//   - shifts past the bit width produce poison;
//   - arithmetic on poison propagates poison;
//   - printing poison prints *some* concrete garbage (deterministic
//     here, so differential runs are reproducible).
//
// This asymmetry is what makes miscompilations observable: a buggy
// lowering that introduces one of these conditions changes the printed
// output (or crashes), while the reference interpreter — running the
// original, UB-free program — prints the intended result.
package llvm

import (
	"fmt"

	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/verify"
)

// Ops lists the llvm-dialect operations.
var Ops = []string{
	"llvm.func", "llvm.return", "llvm.call",
	"llvm.mlir.constant",
	"llvm.add", "llvm.sub", "llvm.mul",
	"llvm.sdiv", "llvm.udiv", "llvm.srem", "llvm.urem",
	"llvm.and", "llvm.or", "llvm.xor",
	"llvm.shl", "llvm.lshr", "llvm.ashr",
	"llvm.icmp", "llvm.select",
	"llvm.trunc", "llvm.sext", "llvm.zext",
	"llvm.smulh", "llvm.umulh",
	"llvm.print",
}

// GarbageBits is the deterministic bit pattern "printed" for a poison
// value, simulating whatever the hardware register happened to hold.
const GarbageBits uint64 = 0xAAAAAAAAAAAAAAAA

// Garbage returns the deterministic stand-in value printed for poison
// of the given type.
func Garbage(t ir.Type) rtval.Int {
	// -0x5555555555555556 is the two's-complement reading of GarbageBits.
	const bits = -0x5555555555555556
	w, _ := ir.BitWidth(t)
	if _, isIdx := t.(ir.IndexType); isIdx {
		return rtval.NewIndex(bits)
	}
	return rtval.NewInt(w, bits)
}

// Semantics returns the executor kernels for the llvm target dialect.
func Semantics() *interp.Dialect {
	d := interp.NewDialect("llvm")

	d.Register("llvm.func", func(ctx *interp.Context, op *ir.Operation) error {
		return fmt.Errorf("nested functions are not supported")
	})

	d.Register("llvm.call", func(ctx *interp.Context, op *ir.Operation) error {
		callee, ok := op.Attrs.Get("callee").(ir.SymbolRefAttr)
		if !ok {
			return fmt.Errorf("llvm.call requires a callee symbol attribute")
		}
		args := make([]rtval.Value, len(op.Operands))
		for i, operand := range op.Operands {
			v, err := ctx.Get(operand)
			if err != nil {
				return err
			}
			args[i] = v
		}
		results, err := ctx.CallFunc(callee.Name, args)
		if err != nil {
			return err
		}
		for i, r := range op.Results {
			if err := ctx.Define(r, results[i]); err != nil {
				return err
			}
		}
		return nil
	})

	d.RegisterTerminator("llvm.return", func(ctx *interp.Context, op *ir.Operation) (interp.TermResult, error) {
		vals := make([]rtval.Value, len(op.Operands))
		for i, operand := range op.Operands {
			v, err := ctx.Get(operand)
			if err != nil {
				return interp.TermResult{}, err
			}
			vals[i] = v
		}
		return interp.TermResult{Exit: &interp.Exit{Kind: interp.ExitReturn, Values: vals}}, nil
	})

	d.Register("llvm.mlir.constant", func(ctx *interp.Context, op *ir.Operation) error {
		v, ok := op.Attrs.Get("value").(ir.IntegerAttr)
		if !ok {
			return fmt.Errorf("llvm.mlir.constant requires an integer value attribute")
		}
		switch t := op.Results[0].Type.(type) {
		case ir.IntegerType:
			return ctx.Define(op.Results[0], rtval.Box(rtval.NewInt(t.Width, v.Value)))
		case ir.IndexType:
			return ctx.Define(op.Results[0], rtval.Box(rtval.NewIndex(v.Value)))
		default:
			return fmt.Errorf("llvm.mlir.constant with unsupported type %s", t)
		}
	})

	bin := func(name string, f func(a, b rtval.Int) (rtval.Int, error)) {
		d.Register(name, func(ctx *interp.Context, op *ir.Operation) error {
			a, err := ctx.GetInt(op.Operands[0])
			if err != nil {
				return err
			}
			b, err := ctx.GetInt(op.Operands[1])
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

	bin("llvm.add", func(a, b rtval.Int) (rtval.Int, error) { return a.Add(b), nil })
	bin("llvm.sub", func(a, b rtval.Int) (rtval.Int, error) { return a.Sub(b), nil })
	bin("llvm.mul", func(a, b rtval.Int) (rtval.Int, error) { return a.Mul(b), nil })
	bin("llvm.and", func(a, b rtval.Int) (rtval.Int, error) { return a.And(b), nil })
	bin("llvm.or", func(a, b rtval.Int) (rtval.Int, error) { return a.Or(b), nil })
	bin("llvm.xor", func(a, b rtval.Int) (rtval.Int, error) { return a.Xor(b), nil })

	// Division family: hardware traps. Division by zero and signed
	// INT_MIN / -1 raise SIGFPE on x86; both are modelled as traps.
	bin("llvm.sdiv", func(a, b rtval.Int) (rtval.Int, error) {
		if b.IsZero() {
			return rtval.Int{}, &rtval.TrapError{Op: "llvm.sdiv", Reason: "integer division by zero (SIGFPE)"}
		}
		if a.Signed() == rtval.MinSigned(a.Width()) && b.Signed() == -1 {
			return rtval.Int{}, &rtval.TrapError{Op: "llvm.sdiv", Reason: "signed division overflow (SIGFPE)"}
		}
		if !a.Defined() || !b.Defined() {
			return poisonLike(a), nil
		}
		r, err := a.DivS(b)
		if err != nil {
			return rtval.Int{}, err
		}
		return r, nil
	})
	bin("llvm.udiv", func(a, b rtval.Int) (rtval.Int, error) {
		if b.IsZero() {
			return rtval.Int{}, &rtval.TrapError{Op: "llvm.udiv", Reason: "integer division by zero (SIGFPE)"}
		}
		if !a.Defined() || !b.Defined() {
			return poisonLike(a), nil
		}
		return a.DivU(b)
	})
	bin("llvm.srem", func(a, b rtval.Int) (rtval.Int, error) {
		if b.IsZero() {
			return rtval.Int{}, &rtval.TrapError{Op: "llvm.srem", Reason: "integer remainder by zero (SIGFPE)"}
		}
		if a.Signed() == rtval.MinSigned(a.Width()) && b.Signed() == -1 {
			return rtval.Int{}, &rtval.TrapError{Op: "llvm.srem", Reason: "signed remainder overflow (SIGFPE)"}
		}
		if !a.Defined() || !b.Defined() {
			return poisonLike(a), nil
		}
		return a.RemS(b)
	})
	bin("llvm.urem", func(a, b rtval.Int) (rtval.Int, error) {
		if b.IsZero() {
			return rtval.Int{}, &rtval.TrapError{Op: "llvm.urem", Reason: "integer remainder by zero (SIGFPE)"}
		}
		if !a.Defined() || !b.Defined() {
			return poisonLike(a), nil
		}
		return a.RemU(b)
	})

	// Shifts: past-width shifts produce poison (LLVM LangRef).
	shift := func(name string, f func(a, b rtval.Int) (rtval.Int, error)) {
		bin(name, func(a, b rtval.Int) (rtval.Int, error) {
			if b.Unsigned() >= uint64(a.Width()) {
				return poisonLike(a), nil
			}
			return f(a, b)
		})
	}
	shift("llvm.shl", rtval.Int.ShL)
	shift("llvm.lshr", rtval.Int.ShRU)
	shift("llvm.ashr", rtval.Int.ShRS)

	// High-half multiplies, standing in for the multi-word expansions
	// the production lowering uses for the extended-arithmetic ops.
	bin("llvm.smulh", func(a, b rtval.Int) (rtval.Int, error) {
		_, hi := a.MulSIExtended(b)
		return hi, nil
	})
	bin("llvm.umulh", func(a, b rtval.Int) (rtval.Int, error) {
		_, hi := a.MulUIExtended(b)
		return hi, nil
	})

	d.Register("llvm.icmp", func(ctx *interp.Context, op *ir.Operation) error {
		a, err := ctx.GetInt(op.Operands[0])
		if err != nil {
			return err
		}
		b, err := ctx.GetInt(op.Operands[1])
		if err != nil {
			return err
		}
		p, ok := op.Attrs.IntValueOf("predicate")
		if !ok {
			return fmt.Errorf("llvm.icmp requires a predicate attribute")
		}
		r, err := a.Cmp(rtval.CmpPredicate(p), b)
		if err != nil {
			return err
		}
		return ctx.Define(op.Results[0], rtval.Box(r))
	})

	d.Register("llvm.select", func(ctx *interp.Context, op *ir.Operation) error {
		cond, err := ctx.GetInt(op.Operands[0])
		if err != nil {
			return err
		}
		t, err := ctx.GetInt(op.Operands[1])
		if err != nil {
			return err
		}
		f, err := ctx.GetInt(op.Operands[2])
		if err != nil {
			return err
		}
		if !cond.Defined() {
			return ctx.Define(op.Results[0], rtval.Box(poisonLike(t)))
		}
		return ctx.Define(op.Results[0], rtval.Box(cond.Select(t, f)))
	})

	cast := func(name string, f func(a rtval.Int, to ir.Type) rtval.Int) {
		d.Register(name, func(ctx *interp.Context, op *ir.Operation) error {
			a, err := ctx.GetInt(op.Operands[0])
			if err != nil {
				return err
			}
			return ctx.Define(op.Results[0], rtval.Box(f(a, op.Results[0].Type)))
		})
	}
	cast("llvm.trunc", func(a rtval.Int, to ir.Type) rtval.Int {
		w, _ := ir.BitWidth(to)
		return a.Trunc(w)
	})
	cast("llvm.sext", func(a rtval.Int, to ir.Type) rtval.Int {
		w, _ := ir.BitWidth(to)
		r := a.ExtS(w)
		if _, isIdx := to.(ir.IndexType); isIdx {
			r = r.IndexCast(ir.Index)
		}
		return r
	})
	cast("llvm.zext", func(a rtval.Int, to ir.Type) rtval.Int {
		w, _ := ir.BitWidth(to)
		r := a.ExtU(w)
		if _, isIdx := to.(ir.IndexType); isIdx {
			r = r.IndexCastU(ir.Index)
		}
		return r
	})

	d.Register("llvm.print", func(ctx *interp.Context, op *ir.Operation) error {
		v, err := ctx.Get(op.Operands[0])
		if err != nil {
			return err
		}
		if !v.Defined() {
			// Printing poison emits whatever bits the register held.
			ctx.PrintRaw(Garbage(op.Operands[0].Type).String())
			return nil
		}
		ctx.PrintRaw(v.String())
		return nil
	})

	return d
}

func poisonLike(a rtval.Int) rtval.Int {
	if a.IsIndex() {
		return rtval.UndefInt(ir.Index)
	}
	return rtval.UndefInt(ir.I(a.Width()))
}

// Specs returns the static rules for the llvm dialect. The target-level
// verifier is intentionally looser than the frontend one (the production
// llvm dialect accepts what earlier verification established), checking
// only structural arity.
func Specs() verify.Registry {
	reg := verify.Registry{}
	binary := verify.OpSpec{Check: func(c *verify.Checker, op *ir.Operation) error {
		if err := verify.WantOperands(op, 2); err != nil {
			return err
		}
		return verify.WantResults(op, 1)
	}}
	for _, name := range []string{
		"llvm.add", "llvm.sub", "llvm.mul",
		"llvm.sdiv", "llvm.udiv", "llvm.srem", "llvm.urem",
		"llvm.and", "llvm.or", "llvm.xor",
		"llvm.shl", "llvm.lshr", "llvm.ashr",
		"llvm.smulh", "llvm.umulh",
	} {
		reg[name] = binary
	}
	reg["llvm.icmp"] = binary
	reg["llvm.mlir.constant"] = verify.OpSpec{Check: func(c *verify.Checker, op *ir.Operation) error {
		if err := verify.WantOperands(op, 0); err != nil {
			return err
		}
		return verify.WantResults(op, 1)
	}}
	reg["llvm.select"] = verify.OpSpec{Check: func(c *verify.Checker, op *ir.Operation) error {
		return verify.WantOperands(op, 3)
	}}
	unary := verify.OpSpec{Check: func(c *verify.Checker, op *ir.Operation) error {
		if err := verify.WantOperands(op, 1); err != nil {
			return err
		}
		return verify.WantResults(op, 1)
	}}
	reg["llvm.trunc"] = unary
	reg["llvm.sext"] = unary
	reg["llvm.zext"] = unary
	reg["llvm.print"] = verify.OpSpec{Check: func(c *verify.Checker, op *ir.Operation) error {
		return verify.WantOperands(op, 1)
	}}
	reg["llvm.func"] = verify.OpSpec{NumRegions: 1, IsolatedRegions: true}
	reg["llvm.return"] = verify.OpSpec{Terminator: true}
	reg["llvm.call"] = verify.OpSpec{Check: func(c *verify.Checker, op *ir.Operation) error {
		if _, ok := op.Attrs.Get("callee").(ir.SymbolRefAttr); !ok {
			return verify.Errf(op, "llvm.call requires a callee symbol")
		}
		return nil
	}}
	return reg
}
