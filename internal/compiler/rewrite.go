package compiler

import (
	"fmt"
	"strconv"
	"strings"

	"ratte/internal/ir"
)

// namer hands out SSA value IDs that are fresh within one function.
// Fresh only ever proposes canonical "v<N>" ids (N in decimal, no
// leading zero) in increasing N, so it records only the function's
// canonical ids: a bitset for N below namerBits, and a map, made only
// when needed, for the rare larger ones. An id Fresh has returned is
// never proposed again, so it needs no record.
type namer struct {
	bits []uint64
	big  map[string]bool
	n    int
}

// namerBits bounds the bitset: a "v<N>" id with N at or above it goes
// to the namer's map instead, so a huge N cannot grow the bitset.
const namerBits = 1 << 16

func newNamer(f *ir.Operation) *namer {
	nm := &namer{}
	f.Walk(func(op *ir.Operation) bool {
		for _, r := range op.Results {
			nm.record(r.ID)
		}
		for _, reg := range op.Regions {
			for _, b := range reg.Blocks {
				for _, a := range b.Args {
					nm.record(a.ID)
				}
			}
		}
		return true
	})
	return nm
}

// record marks id as used if it is one Fresh could propose.
func (nm *namer) record(id string) {
	if len(id) < 2 || id[0] != 'v' || (id[1] == '0' && len(id) > 2) {
		return
	}
	n := 0
	for i := 1; i < len(id); i++ {
		d := id[i] - '0'
		if d > 9 {
			return
		}
		if n < namerBits {
			n = n*10 + int(d)
		}
	}
	if n >= namerBits {
		if nm.big == nil {
			nm.big = make(map[string]bool)
		}
		nm.big[id] = true
		return
	}
	w := n >> 6
	if w >= len(nm.bits) {
		nm.bits = append(nm.bits, make([]uint64, w+1-len(nm.bits))...)
	}
	nm.bits[w] |= 1 << (n & 63)
}

// taken reports whether the canonical id "v<n>" is used.
func (nm *namer) taken(n int) bool {
	if n >= namerBits {
		return nm.big != nil && nm.big["v"+strconv.Itoa(n)]
	}
	w := n >> 6
	return w < len(nm.bits) && nm.bits[w]&(1<<(n&63)) != 0
}

// Fresh returns an unused SSA id.
func (nm *namer) Fresh() string {
	for nm.taken(nm.n) {
		nm.n++
	}
	id := "v" + strconv.Itoa(nm.n)
	nm.n++
	return id
}

// Value allocates a fresh value of the given type.
func (nm *namer) Value(t ir.Type) ir.Value { return ir.V(nm.Fresh(), t) }

// blockNamer hands out block labels that are fresh within one function.
type blockNamer struct {
	used map[string]bool
	n    int
}

func newBlockNamer(f *ir.Operation) *blockNamer {
	bn := &blockNamer{used: make(map[string]bool)}
	f.Walk(func(op *ir.Operation) bool {
		for _, reg := range op.Regions {
			for _, b := range reg.Blocks {
				bn.used[b.Label] = true
			}
		}
		return true
	})
	return bn
}

// Fresh returns an unused block label.
func (bn *blockNamer) Fresh(hint string) string {
	for {
		label := hint + strconv.Itoa(bn.n)
		bn.n++
		if !bn.used[label] {
			bn.used[label] = true
			return label
		}
	}
}

// replaceUsesInOps rewrites every use of the value named old to the
// replacement value, recursing into nested regions and successor
// arguments. Generated IDs are unique per function, so shadowing is not
// a concern.
func replaceUsesInOps(ops []*ir.Operation, old string, repl ir.Value) {
	for _, op := range ops {
		replaceUsesInOp(op, old, repl)
	}
}

func replaceUsesInOp(op *ir.Operation, old string, repl ir.Value) {
	for i, operand := range op.Operands {
		if operand.ID == old {
			op.Operands[i] = repl
		}
	}
	for si := range op.Successors {
		for ai, a := range op.Successors[si].Args {
			if a.ID == old {
				op.Successors[si].Args[ai] = repl
			}
		}
	}
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			replaceUsesInOps(b.Ops, old, repl)
		}
	}
}

// renameUses rewrites uses according to a substitution map (ID -> value),
// recursing into regions; used when inlining cloned region bodies.
func renameUses(ops []*ir.Operation, subst map[string]ir.Value) {
	for _, op := range ops {
		for i, operand := range op.Operands {
			if v, ok := subst[operand.ID]; ok {
				op.Operands[i] = v
			}
		}
		for si := range op.Successors {
			for ai, a := range op.Successors[si].Args {
				if v, ok := subst[a.ID]; ok {
					op.Successors[si].Args[ai] = v
				}
			}
		}
		for _, r := range op.Regions {
			for _, b := range r.Blocks {
				renameUses(b.Ops, subst)
			}
		}
	}
}

// pureOps lists side-effect-free operations whose unused results may be
// removed and whose identical instances may be shared (CSE).
var pureOps = map[string]bool{}

func init() {
	for _, name := range []string{
		"arith.constant",
		"arith.addi", "arith.subi", "arith.muli",
		"arith.andi", "arith.ori", "arith.xori",
		"arith.maxsi", "arith.maxui", "arith.minsi", "arith.minui",
		"arith.cmpi", "arith.select",
		"arith.addui_extended", "arith.mulsi_extended", "arith.mului_extended",
		"arith.extsi", "arith.extui", "arith.trunci",
		"arith.index_cast", "arith.index_castui",
		// The division family is pure but trapping/UB-carrying: it may
		// be removed when dead (removing UB is sound) but must not be
		// speculated. DCE-only purity is what this set encodes.
		"arith.divsi", "arith.divui", "arith.remsi", "arith.remui",
		"arith.ceildivsi", "arith.ceildivui", "arith.floordivsi",
		"arith.shli", "arith.shrsi", "arith.shrui",
		"tensor.empty", "tensor.extract", "tensor.dim", "tensor.cast",
		"llvm.mlir.constant",
	} {
		pureOps[name] = true
	}
}

// isPure reports whether an op is side-effect free.
func isPure(op *ir.Operation) bool { return pureOps[op.Name] && len(op.Regions) == 0 }

// funcsOf returns the function ops of a module.
func funcsOf(m *ir.Module) []*ir.Operation { return m.Funcs() }

// forEachBlock applies fn to every block nested anywhere below op,
// including blocks of nested regions, innermost last.
func forEachBlock(op *ir.Operation, fn func(b *ir.Block) error) error {
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			for _, inner := range b.Ops {
				if err := forEachBlock(inner, fn); err != nil {
					return err
				}
			}
			if err := fn(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// constInt returns the integer payload of an arith.constant/
// llvm.mlir.constant defining op, given the defs map maintained by a
// pass walk.
type constMap map[string]ir.IntegerAttr

// record notes op's constant result if it is a scalar constant.
func (cm constMap) record(op *ir.Operation) {
	if op.Name != "arith.constant" && op.Name != "llvm.mlir.constant" {
		return
	}
	if len(op.Results) != 1 {
		return
	}
	if a, ok := op.Attrs.Get("value").(ir.IntegerAttr); ok {
		cm[op.Results[0].ID] = a
	}
}

// lookup resolves a value to its constant, if known.
func (cm constMap) lookup(v ir.Value) (ir.IntegerAttr, bool) {
	a, ok := cm[v.ID]
	return a, ok
}

// opKey builds a structural key for CSE: name, operand IDs, attributes
// and result types.
func opKey(op *ir.Operation) string {
	var b strings.Builder
	b.WriteString(op.Name)
	for _, o := range op.Operands {
		b.WriteByte('|')
		b.WriteString(o.ID)
	}
	b.WriteByte('#')
	b.WriteString(op.Attrs.String())
	for _, r := range op.Results {
		b.WriteByte('~')
		b.WriteString(r.Type.String())
	}
	return b.String()
}

// useCounts counts every use of each value ID (as operand or successor
// argument) anywhere below f, including nested regions.
func useCounts(f *ir.Operation) map[string]int {
	uses := make(map[string]int)
	for _, r := range f.Regions {
		for _, b := range r.Blocks {
			for _, op := range b.Ops {
				op.Walk(func(op *ir.Operation) bool {
					for _, o := range op.Operands {
						uses[o.ID]++
					}
					for _, s := range op.Successors {
						for _, a := range s.Args {
							uses[a.ID]++
						}
					}
					return true
				})
			}
		}
	}
	return uses
}

func anyResultUsed(op *ir.Operation, uses map[string]int) bool {
	for _, r := range op.Results {
		if uses[r.ID] > 0 {
			return true
		}
	}
	return false
}

// removeDeadOps removes the pure operations of f none of whose results
// is used, sweeping every block (nested regions included) until a
// sweep removes nothing, and calls removed once per op it drops. Uses
// are counted once; dropping an op decrements its operands' counts, so
// an op whose last user goes is dropped later in the same sweep or in
// the next. Dropping only lowers counts, so the ops removed are the
// same whatever the sweep order.
func removeDeadOps(f *ir.Operation, removed func(*ir.Operation)) {
	uses := useCounts(f)
	for {
		any := false
		_ = forEachBlock(f, func(b *ir.Block) error {
			kept := b.Ops[:0]
			for _, op := range b.Ops {
				if isPure(op) && !anyResultUsed(op, uses) {
					for _, o := range op.Operands {
						uses[o.ID]--
					}
					removed(op)
					any = true
					continue
				}
				kept = append(kept, op)
			}
			if len(kept) < len(b.Ops) {
				b.Ops = kept[:len(kept):len(kept)]
			}
			return nil
		})
		if !any {
			return
		}
	}
}

// intAttrOf builds the IntegerAttr for a value of the given scalar type.
func intAttrOf(v int64, t ir.Type) ir.IntegerAttr { return ir.IntAttr(v, t) }

// buildConst builds an arith.constant op defining value v.
func buildConst(nm *namer, v int64, t ir.Type) (*ir.Operation, ir.Value) {
	op := ir.NewOp("arith.constant")
	op.Attrs.Set("value", intAttrOf(v, t))
	res := nm.Value(t)
	op.Results = []ir.Value{res}
	return op, res
}

// buildOp1 builds a single-result op.
func buildOp1(nm *namer, name string, resType ir.Type, operands ...ir.Value) (*ir.Operation, ir.Value) {
	op := ir.NewOp(name)
	op.Operands = operands
	res := nm.Value(resType)
	op.Results = []ir.Value{res}
	return op, res
}

// mustType formats an internal invariant violation.
func mustType(cond bool, format string, args ...any) error {
	if cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}
