package compiler

import (
	"fmt"

	"ratte/internal/bugs"
	"ratte/internal/ir"
	"ratte/internal/rtval"
)

// arithToLLVM maps arith ops with a one-to-one llvm counterpart.
var arithToLLVM = map[string]string{
	"arith.addi":   "llvm.add",
	"arith.subi":   "llvm.sub",
	"arith.muli":   "llvm.mul",
	"arith.andi":   "llvm.and",
	"arith.ori":    "llvm.or",
	"arith.xori":   "llvm.xor",
	"arith.divsi":  "llvm.sdiv",
	"arith.divui":  "llvm.udiv",
	"arith.remsi":  "llvm.srem",
	"arith.remui":  "llvm.urem",
	"arith.shli":   "llvm.shl",
	"arith.shrsi":  "llvm.ashr",
	"arith.shrui":  "llvm.lshr",
	"arith.cmpi":   "llvm.icmp",
	"arith.select": "llvm.select",
	"arith.extsi":  "llvm.sext",
	"arith.extui":  "llvm.zext",
	"arith.trunci": "llvm.trunc",
	// index is modelled as a 64-bit integer at the llvm level; the
	// casts keep their extension behaviour.
	"arith.index_cast":   "llvm.sext",
	"arith.index_castui": "llvm.zext",
}

// runArithToLLVM converts arith operations to the llvm dialect,
// mirroring convert-arith-to-llvm. Most ops map one-to-one; min/max
// become compare+select; the extended-arithmetic ops expand into
// multi-op llvm sequences; the rounded divisions (when arith-expand has
// not already expanded them) get direct conversions — the home of
// bugs 4 (addui_extended legalization failure) and 6 (ceildivsi
// converted with the positive-only formula).
func runArithToLLVM(m *ir.Module, opts *Options) error {
	for _, f := range funcsOf(m) {
		nm := newNamer(f)
		err := forEachBlock(f, func(b *ir.Block) error {
			out := make([]*ir.Operation, 0, len(b.Ops))
			for _, op := range b.Ops {
				var err error
				if out, err = convertArithOp(nm, op, opts, out); err != nil {
					return err
				}
			}
			b.Ops = out
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// convertArithOp appends op's conversion to out. The pass owns the
// module, so one-to-one conversions and constants are renamed in place;
// ops of other dialects pass through unchanged.
func convertArithOp(nm *namer, op *ir.Operation, opts *Options, out []*ir.Operation) ([]*ir.Operation, error) {
	if target, ok := arithToLLVM[op.Name]; ok {
		opts.cover(covToLLVM, op.Name)
		op.Name = target
		op.Attrs.Delete("ratte.canonicalized")
		return append(out, op), nil
	}
	e := &llvmEmitter{nm: nm, ops: out}
	switch op.Name {
	case "arith.constant":
		if _, ok := op.Attrs.Get("value").(ir.IntegerAttr); !ok {
			return nil, fmt.Errorf("non-scalar constant survived to convert-arith-to-llvm")
		}
		opts.cover(covToLLVM, op.Name)
		op.Name = "llvm.mlir.constant"
		return append(out, op), nil

	case "arith.maxsi", "arith.maxui", "arith.minsi", "arith.minui":
		opts.cover(covToLLVM, op.Name)
		convertMinMax(e, op)

	case "arith.addui_extended":
		if opts.Bugs.Enabled(bugs.AdduiExtendedLegalize) && ir.TypeEqual(op.Results[0].Type, ir.I1) {
			// Bug 4: no conversion pattern accepts the i1 case and the
			// pass signals a legalization failure.
			opts.cover(covToLLVMFail, op.Name)
			return nil, fmt.Errorf("failed to legalize operation 'arith.addui_extended'")
		}
		opts.cover(covToLLVM, op.Name)
		convertAdduiExtended(e, op)

	case "arith.mulsi_extended":
		opts.cover(covToLLVM, op.Name)
		convertMulExtended(e, op, "llvm.smulh")
	case "arith.mului_extended":
		opts.cover(covToLLVM, op.Name)
		convertMulExtended(e, op, "llvm.umulh")

	case "arith.ceildivsi":
		opts.cover(covToLLVM, op.Name)
		convertCeilDivSi(e, op, opts)
	case "arith.floordivsi":
		opts.cover(covToLLVM, op.Name)
		convertFloorDivSi(e, op)
	case "arith.ceildivui":
		opts.cover(covToLLVM, op.Name)
		convertCeilDivUi(e, op)

	default:
		if op.Dialect() == "arith" {
			return nil, fmt.Errorf("no conversion for %s", op.Name)
		}
		return append(out, op), nil
	}
	return e.ops, nil
}

type llvmEmitter struct {
	nm  *namer
	ops []*ir.Operation
}

func (e *llvmEmitter) constant(v int64, t ir.Type) ir.Value {
	op := ir.NewOp("llvm.mlir.constant")
	op.Attrs.Set("value", ir.IntAttr(v, t))
	res := e.nm.Value(t)
	op.Results = []ir.Value{res}
	e.ops = append(e.ops, op)
	return res
}

func (e *llvmEmitter) op1(name string, t ir.Type, operands ...ir.Value) ir.Value {
	op, res := buildOp1(e.nm, name, t, operands...)
	e.ops = append(e.ops, op)
	return res
}

func (e *llvmEmitter) icmp(pred rtval.CmpPredicate, a, b ir.Value) ir.Value {
	op := ir.NewOp("llvm.icmp")
	op.Operands = []ir.Value{a, b}
	op.Attrs.Set("predicate", ir.IntAttr(int64(pred), ir.I64))
	res := e.nm.Value(ir.I1)
	op.Results = []ir.Value{res}
	e.ops = append(e.ops, op)
	return res
}

// aliasResult binds the final expansion value to the original result ID.
func (e *llvmEmitter) aliasResult(orig ir.Value, val ir.Value) {
	zero := e.constant(0, orig.Type)
	op := ir.NewOp("llvm.add")
	op.Operands = []ir.Value{val, zero}
	op.Results = []ir.Value{orig}
	e.ops = append(e.ops, op)
}

func convertMinMax(e *llvmEmitter, op *ir.Operation) {
	var pred rtval.CmpPredicate
	switch op.Name {
	case "arith.maxsi":
		pred = rtval.CmpSGT
	case "arith.maxui":
		pred = rtval.CmpUGT
	case "arith.minsi":
		pred = rtval.CmpSLT
	case "arith.minui":
		pred = rtval.CmpULT
	}
	a, b := op.Operands[0], op.Operands[1]
	c := e.icmp(pred, a, b)
	sel := ir.NewOp("llvm.select")
	sel.Operands = []ir.Value{c, a, b}
	sel.Results = []ir.Value{op.Results[0]}
	e.ops = append(e.ops, sel)
}

func convertAdduiExtended(e *llvmEmitter, op *ir.Operation) {
	a, b := op.Operands[0], op.Operands[1]
	t := op.Results[0].Type
	sum := e.op1("llvm.add", t, a, b)
	e.aliasResult(op.Results[0], sum)
	// overflow = sum <u a
	ov := ir.NewOp("llvm.icmp")
	ov.Operands = []ir.Value{sum, a}
	ov.Attrs.Set("predicate", ir.IntAttr(int64(rtval.CmpULT), ir.I64))
	ov.Results = []ir.Value{op.Results[1]}
	e.ops = append(e.ops, ov)
}

func convertMulExtended(e *llvmEmitter, op *ir.Operation, highOp string) {
	a, b := op.Operands[0], op.Operands[1]
	lo := ir.NewOp("llvm.mul")
	lo.Operands = []ir.Value{a, b}
	lo.Results = []ir.Value{op.Results[0]}
	hi := ir.NewOp(highOp)
	hi.Operands = []ir.Value{a, b}
	hi.Results = []ir.Value{op.Results[1]}
	e.ops = append(e.ops, lo, hi)
}

// convertCeilDivSi directly converts arith.ceildivsi (used when
// arith-expand did not run first).
//
// Correct: the quotient/remainder adjustment.
// Bug 6 (issue 89382): the positive-operand-only (a + b - 1) / b.
func convertCeilDivSi(e *llvmEmitter, op *ir.Operation, opts *Options) {
	a, b := op.Operands[0], op.Operands[1]
	t := op.Results[0].Type

	if opts.Bugs.Enabled(bugs.CeilDivSiConvert) {
		one := e.constant(1, t)
		apb := e.op1("llvm.add", t, a, b)
		apbm1 := e.op1("llvm.sub", t, apb, one)
		q := e.op1("llvm.sdiv", t, apbm1, b)
		e.aliasResult(op.Results[0], q)
		return
	}

	zero := e.constant(0, t)
	one := e.constant(1, t)
	q := e.op1("llvm.sdiv", t, a, b)
	r := e.op1("llvm.srem", t, a, b)
	rNonZero := e.icmp(rtval.CmpNE, r, zero)
	rNeg := e.icmp(rtval.CmpSLT, r, zero)
	bNeg := e.icmp(rtval.CmpSLT, b, zero)
	sameSign := e.icmp(rtval.CmpEQ, rNeg, bNeg)
	adjust := e.op1("llvm.and", ir.I1, rNonZero, sameSign)
	qp1 := e.op1("llvm.add", t, q, one)
	res := e.op1("llvm.select", t, adjust, qp1, q)
	e.aliasResult(op.Results[0], res)
}

// convertFloorDivSi directly converts arith.floordivsi with the correct
// quotient/remainder adjustment.
func convertFloorDivSi(e *llvmEmitter, op *ir.Operation) {
	a, b := op.Operands[0], op.Operands[1]
	t := op.Results[0].Type
	zero := e.constant(0, t)
	one := e.constant(1, t)
	q := e.op1("llvm.sdiv", t, a, b)
	r := e.op1("llvm.srem", t, a, b)
	rNonZero := e.icmp(rtval.CmpNE, r, zero)
	rNeg := e.icmp(rtval.CmpSLT, r, zero)
	bNeg := e.icmp(rtval.CmpSLT, b, zero)
	signsDiffer := e.op1("llvm.xor", ir.I1, rNeg, bNeg)
	adjust := e.op1("llvm.and", ir.I1, rNonZero, signsDiffer)
	qm1 := e.op1("llvm.sub", t, q, one)
	res := e.op1("llvm.select", t, adjust, qm1, q)
	e.aliasResult(op.Results[0], res)
}

// convertCeilDivUi directly converts arith.ceildivui.
func convertCeilDivUi(e *llvmEmitter, op *ir.Operation) {
	a, b := op.Operands[0], op.Operands[1]
	t := op.Results[0].Type
	zero := e.constant(0, t)
	one := e.constant(1, t)
	am1 := e.op1("llvm.sub", t, a, one)
	q := e.op1("llvm.udiv", t, am1, b)
	qp1 := e.op1("llvm.add", t, q, one)
	isZero := e.icmp(rtval.CmpEQ, a, zero)
	res := e.op1("llvm.select", t, isZero, zero, qp1)
	e.aliasResult(op.Results[0], res)
}

// runFuncToLLVM converts the func dialect to llvm function ops.
func runFuncToLLVM(m *ir.Module, opts *Options) error {
	rename := map[string]string{
		"func.func":   "llvm.func",
		"func.call":   "llvm.call",
		"func.return": "llvm.return",
	}
	m.Walk(func(op *ir.Operation) bool {
		if to, ok := rename[op.Name]; ok {
			opts.cover(covToLLVM, op.Name)
			op.Name = to
		}
		return true
	})
	return nil
}

// runVectorToLLVM lowers vector.print to the runtime print primitive.
func runVectorToLLVM(m *ir.Module, opts *Options) error {
	var err error
	m.Walk(func(op *ir.Operation) bool {
		if op.Name != "vector.print" {
			return true
		}
		if !ir.IsIntegerOrIndex(op.Operands[0].Type) {
			opts.cover(covToLLVMFail, op.Name)
			err = fmt.Errorf("vector.print of non-scalar type %s cannot be lowered", op.Operands[0].Type)
			return false
		}
		opts.cover(covToLLVM, op.Name)
		op.Name = "llvm.print"
		return true
	})
	return err
}
