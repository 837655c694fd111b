package compiler

import (
	"ratte/internal/bugs"
	"ratte/internal/ir"
	"ratte/internal/rtval"
)

// runCanonicalize applies constant folding, algebraic simplification and
// dead-code elimination until a fixpoint, per function. It hosts three
// of the paper's injected optimisation bugs (1, 2 and 5).
func runCanonicalize(m *ir.Module, opts *Options) error {
	for _, f := range funcsOf(m) {
		c := &canonicalizer{opts: opts, nm: newNamer(f), f: f}
		for iter := 0; iter < 8; iter++ {
			c.changed = false
			consts := constMap{}
			for _, r := range f.Regions {
				for _, b := range r.Blocks {
					c.block(b, consts)
				}
			}
			c.dce(f)
			if !c.changed {
				break
			}
		}
	}
	return nil
}

type canonicalizer struct {
	opts    *Options
	nm      *namer
	f       *ir.Operation // enclosing function, for use re-wiring
	changed bool

	// indexCastSrc records, for results of arith.index_cast from index
	// to an integer type, the original index-typed operand — the state
	// the (buggy) chain fold consults.
	indexCastSrc map[string]ir.Value
}

func (c *canonicalizer) block(b *ir.Block, consts constMap) {
	if c.indexCastSrc == nil {
		c.indexCastSrc = make(map[string]ir.Value)
	}
	var out []*ir.Operation
	for _, op := range b.Ops {
		// Canonicalize nested regions first (Standard scoping lets them
		// see the enclosing constants).
		for _, r := range op.Regions {
			for _, nb := range r.Blocks {
				c.block(nb, consts)
			}
		}
		replaced := c.visit(op, consts, &out)
		if replaced {
			c.opts.cover(covCanonRewrite, op.Name)
		} else {
			out = append(out, op)
			consts.record(op)
		}
	}
	b.Ops = out
}

// visit rewrites one operation. When it returns true the op has been
// replaced (replacement ops, if any, were appended to *out) and all
// uses re-wired.
func (c *canonicalizer) visit(op *ir.Operation, consts constMap, out *[]*ir.Operation) bool {
	switch op.Name {
	case "arith.addi", "arith.subi", "arith.muli",
		"arith.andi", "arith.ori", "arith.xori",
		"arith.maxsi", "arith.maxui", "arith.minsi", "arith.minui",
		"arith.divsi", "arith.divui", "arith.remsi", "arith.remui",
		"arith.ceildivsi", "arith.ceildivui", "arith.floordivsi",
		"arith.shli", "arith.shrsi", "arith.shrui":
		return c.visitBinary(op, consts, out)
	case "arith.cmpi":
		return c.visitCmpi(op, consts, out)
	case "arith.select":
		return c.visitSelect(op, consts)
	case "arith.extsi", "arith.extui", "arith.trunci":
		return c.visitCast(op, consts, out)
	case "arith.index_cast", "arith.index_castui":
		return c.visitIndexCast(op, consts, out)
	case "arith.mulsi_extended":
		return c.visitMulsiExtended(op, consts, out)
	case "arith.addui_extended":
		return c.visitAdduiExtended(op, consts, out)
	}
	return false
}

// constOf materialises the rtval for a constant attribute at type t.
func constVal(a ir.IntegerAttr, t ir.Type) rtval.Int {
	if _, isIdx := t.(ir.IndexType); isIdx {
		return rtval.NewIndex(a.Value)
	}
	w, _ := ir.BitWidth(t)
	return rtval.NewInt(w, a.Value)
}

// replaceWithConst replaces op's single result with a fresh constant.
func (c *canonicalizer) replaceWithConst(op *ir.Operation, v rtval.Int, out *[]*ir.Operation) {
	cst, res := buildConst(c.nm, v.Signed(), op.Results[0].Type)
	*out = append(*out, cst)
	c.replaceAllUses(op.Results[0].ID, res)
	c.changed = true
}

// replaceWithValue re-wires all uses of one result to an existing value.
func (c *canonicalizer) replaceWithValue(op *ir.Operation, resultID string, repl ir.Value) {
	c.replaceAllUses(resultID, repl)
	c.changed = true
}

// replaceAllUses rewrites uses of id throughout the enclosing function
// (IDs are unique per function, so a whole-function rewrite is exact).
func (c *canonicalizer) replaceAllUses(id string, repl ir.Value) {
	for _, r := range c.f.Regions {
		for _, b := range r.Blocks {
			replaceUsesInOps(b.Ops, id, repl)
		}
	}
}

func (c *canonicalizer) visitBinary(op *ir.Operation, consts constMap, out *[]*ir.Operation) bool {
	a, aok := consts.lookup(op.Operands[0])
	bAttr, bok := consts.lookup(op.Operands[1])
	t := op.Results[0].Type

	if aok && bok {
		x, y := constVal(a, t), constVal(bAttr, t)
		if r, ok := foldBinary(op.Name, x, y); ok {
			c.replaceWithConst(op, r, out)
			return true
		}
		// Legality branch: the fold declined a UB-carrying constant
		// expression (division by zero, overflowing shift...).
		c.opts.cover(covCanonDecline, op.Name)
		return false
	}

	// Same-operand identities. (Refining a possibly-undefined value to a
	// constant is sound: MLIR folders may refine undef.)
	if op.Operands[0].ID == op.Operands[1].ID {
		switch op.Name {
		case "arith.subi", "arith.xori":
			c.replaceWithConst(op, constVal(ir.IntAttr(0, t), t), out)
			return true
		case "arith.andi", "arith.ori",
			"arith.maxsi", "arith.maxui", "arith.minsi", "arith.minui":
			c.replaceWithValue(op, op.Results[0].ID, op.Operands[0])
			return true
		}
	}

	// Algebraic identities with one constant.
	if bok {
		y := constVal(bAttr, t)
		switch op.Name {
		case "arith.addi", "arith.subi", "arith.ori", "arith.xori",
			"arith.shli", "arith.shrsi", "arith.shrui":
			if y.IsZero() {
				c.replaceWithValue(op, op.Results[0].ID, op.Operands[0])
				return true
			}
		case "arith.muli":
			if y.Signed() == 1 {
				c.replaceWithValue(op, op.Results[0].ID, op.Operands[0])
				return true
			}
			if y.IsZero() {
				c.replaceWithValue(op, op.Results[0].ID, op.Operands[1])
				return true
			}
		case "arith.divsi", "arith.divui":
			if y.Signed() == 1 {
				c.replaceWithValue(op, op.Results[0].ID, op.Operands[0])
				return true
			}
		case "arith.remsi", "arith.remui":
			// x % 1 == 0 (and x % -1 == 0 for remui's huge divisor is
			// NOT zero, so only the signed case folds for -1).
			if y.Signed() == 1 || (op.Name == "arith.remsi" && y.Signed() == -1) {
				c.replaceWithConst(op, constVal(ir.IntAttr(0, t), t), out)
				return true
			}
		case "arith.andi":
			if y.IsZero() {
				c.replaceWithValue(op, op.Results[0].ID, op.Operands[1])
				return true
			}
			if y.Unsigned() == rtval.MaxUnsigned(y.Width()) {
				c.replaceWithValue(op, op.Results[0].ID, op.Operands[0])
				return true
			}
		}
	}
	if aok {
		x := constVal(a, t)
		switch op.Name {
		case "arith.addi", "arith.ori", "arith.xori":
			if x.IsZero() {
				c.replaceWithValue(op, op.Results[0].ID, op.Operands[1])
				return true
			}
		case "arith.muli":
			if x.Signed() == 1 {
				c.replaceWithValue(op, op.Results[0].ID, op.Operands[1])
				return true
			}
			if x.IsZero() {
				c.replaceWithValue(op, op.Results[0].ID, op.Operands[0])
				return true
			}
		case "arith.andi":
			if x.IsZero() {
				c.replaceWithValue(op, op.Results[0].ID, op.Operands[0])
				return true
			}
		}
	}
	return false
}

func isIndex(t ir.Type) bool {
	_, ok := t.(ir.IndexType)
	return ok
}

// foldBinary evaluates a binary arith op over constants, declining to
// fold UB-carrying cases (folding away runtime UB would change
// behaviour the fuzzer depends on observing).
func foldBinary(name string, x, y rtval.Int) (rtval.Int, bool) {
	switch name {
	case "arith.addi":
		return x.Add(y), true
	case "arith.subi":
		return x.Sub(y), true
	case "arith.muli":
		return x.Mul(y), true
	case "arith.andi":
		return x.And(y), true
	case "arith.ori":
		return x.Or(y), true
	case "arith.xori":
		return x.Xor(y), true
	case "arith.maxsi":
		return x.MaxS(y), true
	case "arith.maxui":
		return x.MaxU(y), true
	case "arith.minsi":
		return x.MinS(y), true
	case "arith.minui":
		return x.MinU(y), true
	case "arith.divsi":
		r, err := x.DivS(y)
		return r, err == nil
	case "arith.divui":
		r, err := x.DivU(y)
		return r, err == nil
	case "arith.remsi":
		r, err := x.RemS(y)
		return r, err == nil
	case "arith.remui":
		r, err := x.RemU(y)
		return r, err == nil
	case "arith.ceildivsi":
		r, err := x.CeilDivS(y)
		return r, err == nil
	case "arith.ceildivui":
		r, err := x.CeilDivU(y)
		return r, err == nil
	case "arith.floordivsi":
		r, err := x.FloorDivS(y)
		return r, err == nil
	case "arith.shli":
		r, err := x.ShL(y)
		return r, err == nil
	case "arith.shrsi":
		r, err := x.ShRS(y)
		return r, err == nil
	case "arith.shrui":
		r, err := x.ShRU(y)
		return r, err == nil
	}
	return rtval.Int{}, false
}

func (c *canonicalizer) visitCmpi(op *ir.Operation, consts constMap, out *[]*ir.Operation) bool {
	p, ok := op.Attrs.IntValueOf("predicate")
	if !ok {
		return false
	}
	pred := rtval.CmpPredicate(p)
	a, aok := consts.lookup(op.Operands[0])
	bAttr, bok := consts.lookup(op.Operands[1])
	if aok && bok {
		t := op.Operands[0].Type
		r, err := constVal(a, t).Cmp(pred, constVal(bAttr, t))
		if err != nil {
			c.opts.cover(covCanonDecline, op.Name)
			return false
		}
		c.replaceWithConst(op, r, out)
		return true
	}
	// cmpi(x, x) folds for reflexive/irreflexive predicates.
	if op.Operands[0].ID == op.Operands[1].ID {
		switch pred {
		case rtval.CmpEQ, rtval.CmpSLE, rtval.CmpSGE, rtval.CmpULE, rtval.CmpUGE:
			c.replaceWithConst(op, rtval.Bool(true), out)
			return true
		case rtval.CmpNE, rtval.CmpSLT, rtval.CmpSGT, rtval.CmpULT, rtval.CmpUGT:
			c.replaceWithConst(op, rtval.Bool(false), out)
			return true
		}
	}
	return false
}

func (c *canonicalizer) visitSelect(op *ir.Operation, consts constMap) bool {
	if cond, ok := consts.lookup(op.Operands[0]); ok {
		pick := op.Operands[2]
		if cond.Value != 0 {
			pick = op.Operands[1]
		}
		c.replaceWithValue(op, op.Results[0].ID, pick)
		return true
	}
	if op.Operands[1].ID == op.Operands[2].ID {
		c.replaceWithValue(op, op.Results[0].ID, op.Operands[1])
		return true
	}
	return false
}

func (c *canonicalizer) visitCast(op *ir.Operation, consts constMap, out *[]*ir.Operation) bool {
	a, ok := consts.lookup(op.Operands[0])
	if !ok {
		return false
	}
	from := constVal(a, op.Operands[0].Type)
	w, _ := ir.BitWidth(op.Results[0].Type)
	var r rtval.Int
	switch op.Name {
	case "arith.extsi":
		r = from.ExtS(w)
	case "arith.extui":
		r = from.ExtU(w)
	case "arith.trunci":
		r = from.Trunc(w)
	}
	c.replaceWithConst(op, r, out)
	return true
}

func (c *canonicalizer) visitIndexCast(op *ir.Operation, consts constMap, out *[]*ir.Operation) bool {
	// Bug 2: the chain fold index_cast(index_cast(y : index -> iN) :
	// iN -> index) => y drops the intermediate truncation.
	if c.opts.Bugs.Enabled(bugs.IndexCastChainFold) && op.Name == "arith.index_cast" && isIndex(op.Results[0].Type) {
		if src, ok := c.indexCastSrc[op.Operands[0].ID]; ok {
			c.replaceWithValue(op, op.Results[0].ID, src)
			return true
		}
	}
	// Record index -> integer casts for the chain pattern.
	if op.Name == "arith.index_cast" && isIndex(op.Operands[0].Type) {
		c.indexCastSrc[op.Results[0].ID] = op.Operands[0]
	}

	a, ok := consts.lookup(op.Operands[0])
	if !ok {
		return false
	}
	from := constVal(a, op.Operands[0].Type)
	var r rtval.Int
	switch op.Name {
	case "arith.index_cast":
		r = from.IndexCast(op.Results[0].Type)
	case "arith.index_castui":
		if c.opts.Bugs.Enabled(bugs.IndexCastUIFold) {
			// Bug 1: the fold sign-extends instead of zero-extending.
			r = from.IndexCast(op.Results[0].Type)
		} else {
			r = from.IndexCastU(op.Results[0].Type)
		}
	}
	c.replaceWithConst(op, r, out)
	return true
}

func (c *canonicalizer) visitMulsiExtended(op *ir.Operation, consts constMap, out *[]*ir.Operation) bool {
	t := op.Results[0].Type
	// The i1 special case, applied once per op. Correct: the high half
	// of the 2-bit signed product of i1 values is always 0, so fold it
	// to the zero constant. Bug 5 instead reasons "the high half is the
	// sign of the product, which for i1 equals the low half" and
	// re-wires high to low (paper Figure 2).
	if ir.TypeEqual(t, ir.I1) && !op.Attrs.Has("ratte.canonicalized") {
		op.Attrs.Set("ratte.canonicalized", ir.UnitAttr{})
		if c.opts.Bugs.Enabled(bugs.MulsiExtendedI1Fold) {
			c.replaceWithValue(op, op.Results[1].ID, op.Results[0])
		} else {
			zero, zv := buildConst(c.nm, 0, ir.I1)
			*out = append(*out, zero)
			c.replaceWithValue(op, op.Results[1].ID, zv)
		}
		return false
	}
	a, aok := consts.lookup(op.Operands[0])
	bAttr, bok := consts.lookup(op.Operands[1])
	if aok && bok {
		lo, hi := constVal(a, t).MulSIExtended(constVal(bAttr, t))
		cl, lv := buildConst(c.nm, lo.Signed(), t)
		ch, hv := buildConst(c.nm, hi.Signed(), t)
		*out = append(*out, cl, ch)
		c.replaceAllUses(op.Results[0].ID, lv)
		c.replaceAllUses(op.Results[1].ID, hv)
		c.changed = true
		return true
	}
	return false
}

func (c *canonicalizer) visitAdduiExtended(op *ir.Operation, consts constMap, out *[]*ir.Operation) bool {
	a, aok := consts.lookup(op.Operands[0])
	bAttr, bok := consts.lookup(op.Operands[1])
	if !aok || !bok {
		return false
	}
	t := op.Results[0].Type
	sum, overflow := constVal(a, t).AddUIExtended(constVal(bAttr, t))
	cs, sv := buildConst(c.nm, sum.Signed(), t)
	co, ov := buildConst(c.nm, overflow.Signed(), ir.I1)
	*out = append(*out, cs, co)
	c.replaceAllUses(op.Results[0].ID, sv)
	c.replaceAllUses(op.Results[1].ID, ov)
	c.changed = true
	return true
}

// dce removes pure operations none of whose results are used, in every
// block of the function including nested regions.
func (c *canonicalizer) dce(f *ir.Operation) {
	removeDeadOps(f, func(op *ir.Operation) {
		c.opts.cover(covCanonDCE, op.Name)
		c.changed = true
	})
}
