// Package rtval implements the runtime value domain of Ratte's reference
// semantics: arbitrary-width two's-complement integers (the arith and
// index scalar types) and ranked tensors with per-element definedness.
//
// The pure operations on Int correspond to the paper's type interfaces
// (Figure 10): everything a dialect semantics may compute on a value
// without side effects lives here, so dialect kernels can be written
// against this package rather than against concrete machine types.
//
// Undefined behaviour is reported eagerly via *UBError: the reference
// interpreter rejects UB instead of producing a value, which is what lets
// the generator guarantee UB-freedom and the differential oracle treat
// every output mismatch as a bug.
package rtval

import (
	"fmt"
	"math/bits"

	"ratte/internal/ir"
)

// UBError describes an undefined behaviour encountered while evaluating
// an operation, such as division by zero or signed-division overflow.
type UBError struct {
	Op     string // operation that triggered the UB, e.g. "arith.divsi"
	Reason string // human-readable description
}

func (e *UBError) Error() string {
	if e.Op == "" {
		return "undefined behaviour: " + e.Reason
	}
	return "undefined behaviour in " + e.Op + ": " + e.Reason
}

// TrapError describes a deterministic runtime failure (e.g. an
// out-of-bounds tensor.extract, or a failed tensor.cast). Traps are
// distinct from UB: a correct compiler must preserve a trap, but Ratte's
// generators avoid producing either.
type TrapError struct {
	Op     string
	Reason string
}

func (e *TrapError) Error() string {
	return "runtime trap in " + e.Op + ": " + e.Reason
}

// Int is a signless integer value of a given bit width in two's
// complement, covering both the iN types (Width=N) and index
// (Width=64, IsIndex=true). The zero value is an i0-like invalid value;
// construct Ints via NewInt, NewIndex or Bool.
type Int struct {
	width   uint
	isIndex bool
	bits    uint64 // masked to width
	undef   bool   // true when the value is not well-defined
}

// NewInt builds an integer value of the given width from a 64-bit
// pattern; bits outside the width are discarded.
func NewInt(width uint, v int64) Int {
	return Int{width: width, bits: uint64(v) & mask(width)}
}

// NewIndex builds an index value (modelled as 64-bit).
func NewIndex(v int64) Int {
	return Int{width: 64, isIndex: true, bits: uint64(v)}
}

// Bool builds an i1 value.
func Bool(b bool) Int {
	if b {
		return NewInt(1, 1)
	}
	return NewInt(1, 0)
}

// UndefInt builds a not-well-defined integer of the given type, as
// produced by reading uninitialised storage (e.g. tensor.empty).
func UndefInt(t ir.Type) Int {
	w, _ := ir.BitWidth(t)
	_, isIdx := t.(ir.IndexType)
	return Int{width: w, isIndex: isIdx, undef: true}
}

func mask(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// Width returns the bit width (64 for index).
func (x Int) Width() uint { return x.width }

// IsIndex reports whether the value has index type.
func (x Int) IsIndex() bool { return x.isIndex }

// Type returns the IR type of the value.
func (x Int) Type() ir.Type {
	if x.isIndex {
		return ir.Index
	}
	return ir.I(x.width)
}

// Defined reports whether the value is well-defined.
func (x Int) Defined() bool { return !x.undef }

// Signed returns the value interpreted as a signed two's-complement
// integer (sign-extended to 64 bits).
func (x Int) Signed() int64 {
	if x.width == 0 {
		return 0
	}
	if x.width < 64 && x.bits&(uint64(1)<<(x.width-1)) != 0 {
		return int64(x.bits | ^mask(x.width))
	}
	return int64(x.bits)
}

// Unsigned returns the value interpreted as unsigned.
func (x Int) Unsigned() uint64 { return x.bits }

// IsZero reports whether all bits are zero.
func (x Int) IsZero() bool { return x.bits == 0 }

// IsTrue reports whether an i1 value is 1.
func (x Int) IsTrue() bool { return x.bits != 0 }

// MinSigned returns the smallest signed value of width w (e.g. -2^63).
func MinSigned(w uint) int64 {
	return -(int64(1) << (w - 1))
}

// MaxSigned returns the largest signed value of width w.
func MaxSigned(w uint) int64 {
	return int64(1)<<(w-1) - 1
}

// MaxUnsigned returns the largest unsigned value of width w.
func MaxUnsigned(w uint) uint64 { return mask(w) }

// String renders the value the way vector.print renders scalars:
// signed decimal for integers and index.
func (x Int) String() string {
	if x.undef {
		return "undef"
	}
	return fmt.Sprintf("%d", x.Signed())
}

// Equal reports whether two Ints have the same type, definedness and bits.
func (x Int) Equal(y Int) bool {
	return x.width == y.width && x.isIndex == y.isIndex &&
		x.undef == y.undef && (x.undef || x.bits == y.bits)
}

// sameType builds a result value of x's type from a raw pattern.
func (x Int) make(bits uint64) Int {
	return Int{width: x.width, isIndex: x.isIndex, bits: bits & mask(x.width)}
}

func (x Int) propagateUndef(y Int, bits uint64) Int {
	r := x.make(bits)
	r.undef = x.undef || y.undef
	return r
}

// Add returns x+y with wraparound.
func (x Int) Add(y Int) Int { return x.propagateUndef(y, x.bits+y.bits) }

// Sub returns x-y with wraparound.
func (x Int) Sub(y Int) Int { return x.propagateUndef(y, x.bits-y.bits) }

// Mul returns x*y with wraparound.
func (x Int) Mul(y Int) Int { return x.propagateUndef(y, x.bits*y.bits) }

// Neg returns -x with wraparound.
func (x Int) Neg() Int {
	r := x.make(-x.bits)
	r.undef = x.undef
	return r
}

// DivS implements arith.divsi: signed division rounding toward zero.
// Division by zero and MIN/-1 overflow are UB.
func (x Int) DivS(y Int) (Int, error) {
	if y.IsZero() {
		return Int{}, &UBError{Op: "arith.divsi", Reason: "division by zero"}
	}
	a, b := x.Signed(), y.Signed()
	if a == MinSigned(x.width) && b == -1 {
		return Int{}, &UBError{Op: "arith.divsi", Reason: "signed division overflow"}
	}
	return x.propagateUndef(y, uint64(a/b)), nil
}

// DivU implements arith.divui: unsigned division. Division by zero is UB.
func (x Int) DivU(y Int) (Int, error) {
	if y.IsZero() {
		return Int{}, &UBError{Op: "arith.divui", Reason: "division by zero"}
	}
	return x.propagateUndef(y, x.bits/y.bits), nil
}

// RemS implements arith.remsi. Division by zero is UB; like LLVM's srem,
// the MIN%-1 case is also UB.
func (x Int) RemS(y Int) (Int, error) {
	if y.IsZero() {
		return Int{}, &UBError{Op: "arith.remsi", Reason: "remainder by zero"}
	}
	a, b := x.Signed(), y.Signed()
	if a == MinSigned(x.width) && b == -1 {
		return Int{}, &UBError{Op: "arith.remsi", Reason: "signed remainder overflow"}
	}
	return x.propagateUndef(y, uint64(a%b)), nil
}

// RemU implements arith.remui. Division by zero is UB.
func (x Int) RemU(y Int) (Int, error) {
	if y.IsZero() {
		return Int{}, &UBError{Op: "arith.remui", Reason: "remainder by zero"}
	}
	return x.propagateUndef(y, x.bits%y.bits), nil
}

// CeilDivS implements arith.ceildivsi: signed division rounding toward
// positive infinity. Division by zero and MIN/-1 are UB.
func (x Int) CeilDivS(y Int) (Int, error) {
	if y.IsZero() {
		return Int{}, &UBError{Op: "arith.ceildivsi", Reason: "division by zero"}
	}
	a, b := x.Signed(), y.Signed()
	if a == MinSigned(x.width) && b == -1 {
		return Int{}, &UBError{Op: "arith.ceildivsi", Reason: "signed division overflow"}
	}
	q := a / b
	if (a%b != 0) && ((a > 0) == (b > 0)) {
		q++
	}
	return x.propagateUndef(y, uint64(q)), nil
}

// FloorDivS implements arith.floordivsi: signed division rounding toward
// negative infinity. Division by zero and MIN/-1 are UB.
func (x Int) FloorDivS(y Int) (Int, error) {
	if y.IsZero() {
		return Int{}, &UBError{Op: "arith.floordivsi", Reason: "division by zero"}
	}
	a, b := x.Signed(), y.Signed()
	if a == MinSigned(x.width) && b == -1 {
		return Int{}, &UBError{Op: "arith.floordivsi", Reason: "signed division overflow"}
	}
	q := a / b
	if (a%b != 0) && ((a > 0) != (b > 0)) {
		q--
	}
	return x.propagateUndef(y, uint64(q)), nil
}

// CeilDivU implements arith.ceildivui: unsigned division rounding up.
// Division by zero is UB.
func (x Int) CeilDivU(y Int) (Int, error) {
	if y.IsZero() {
		return Int{}, &UBError{Op: "arith.ceildivui", Reason: "division by zero"}
	}
	q := x.bits / y.bits
	if x.bits%y.bits != 0 {
		q++
	}
	return x.propagateUndef(y, q), nil
}

// ShL implements arith.shli. A shift amount >= width is UB (the
// LLVM-semantics reading the Ratte spec work established for arith).
func (x Int) ShL(y Int) (Int, error) {
	if y.Unsigned() >= uint64(x.width) {
		return Int{}, &UBError{Op: "arith.shli", Reason: "shift amount past bit width"}
	}
	return x.propagateUndef(y, x.bits<<y.Unsigned()), nil
}

// ShRU implements arith.shrui (logical shift right). Shift >= width is UB.
func (x Int) ShRU(y Int) (Int, error) {
	if y.Unsigned() >= uint64(x.width) {
		return Int{}, &UBError{Op: "arith.shrui", Reason: "shift amount past bit width"}
	}
	return x.propagateUndef(y, x.bits>>y.Unsigned()), nil
}

// ShRS implements arith.shrsi (arithmetic shift right). Shift >= width
// is UB.
func (x Int) ShRS(y Int) (Int, error) {
	if y.Unsigned() >= uint64(x.width) {
		return Int{}, &UBError{Op: "arith.shrsi", Reason: "shift amount past bit width"}
	}
	return x.propagateUndef(y, uint64(x.Signed()>>y.Unsigned())), nil
}

// And returns the bitwise AND.
func (x Int) And(y Int) Int { return x.propagateUndef(y, x.bits&y.bits) }

// Or returns the bitwise OR.
func (x Int) Or(y Int) Int { return x.propagateUndef(y, x.bits|y.bits) }

// Xor returns the bitwise XOR.
func (x Int) Xor(y Int) Int { return x.propagateUndef(y, x.bits^y.bits) }

// MinS returns the signed minimum.
func (x Int) MinS(y Int) Int {
	if x.Signed() <= y.Signed() {
		return x.propagateUndef(y, x.bits)
	}
	return x.propagateUndef(y, y.bits)
}

// MaxS returns the signed maximum.
func (x Int) MaxS(y Int) Int {
	if x.Signed() >= y.Signed() {
		return x.propagateUndef(y, x.bits)
	}
	return x.propagateUndef(y, y.bits)
}

// MinU returns the unsigned minimum.
func (x Int) MinU(y Int) Int {
	if x.bits <= y.bits {
		return x.propagateUndef(y, x.bits)
	}
	return x.propagateUndef(y, y.bits)
}

// MaxU returns the unsigned maximum.
func (x Int) MaxU(y Int) Int {
	if x.bits >= y.bits {
		return x.propagateUndef(y, x.bits)
	}
	return x.propagateUndef(y, y.bits)
}

// CmpPredicate enumerates arith.cmpi predicates, numbered as in MLIR.
type CmpPredicate int

// The arith.cmpi predicates.
const (
	CmpEQ  CmpPredicate = 0
	CmpNE  CmpPredicate = 1
	CmpSLT CmpPredicate = 2
	CmpSLE CmpPredicate = 3
	CmpSGT CmpPredicate = 4
	CmpSGE CmpPredicate = 5
	CmpULT CmpPredicate = 6
	CmpULE CmpPredicate = 7
	CmpUGT CmpPredicate = 8
	CmpUGE CmpPredicate = 9
)

var cmpNames = map[CmpPredicate]string{
	CmpEQ: "eq", CmpNE: "ne",
	CmpSLT: "slt", CmpSLE: "sle", CmpSGT: "sgt", CmpSGE: "sge",
	CmpULT: "ult", CmpULE: "ule", CmpUGT: "ugt", CmpUGE: "uge",
}

func (p CmpPredicate) String() string {
	if s, ok := cmpNames[p]; ok {
		return s
	}
	return fmt.Sprintf("cmp(%d)", int(p))
}

// Valid reports whether p is a defined predicate.
func (p CmpPredicate) Valid() bool { _, ok := cmpNames[p]; return ok }

// Cmp implements arith.cmpi, returning an i1.
func (x Int) Cmp(p CmpPredicate, y Int) (Int, error) {
	var r bool
	switch p {
	case CmpEQ:
		r = x.bits == y.bits
	case CmpNE:
		r = x.bits != y.bits
	case CmpSLT:
		r = x.Signed() < y.Signed()
	case CmpSLE:
		r = x.Signed() <= y.Signed()
	case CmpSGT:
		r = x.Signed() > y.Signed()
	case CmpSGE:
		r = x.Signed() >= y.Signed()
	case CmpULT:
		r = x.bits < y.bits
	case CmpULE:
		r = x.bits <= y.bits
	case CmpUGT:
		r = x.bits > y.bits
	case CmpUGE:
		r = x.bits >= y.bits
	default:
		return Int{}, fmt.Errorf("rtval: invalid cmpi predicate %d", int(p))
	}
	res := Bool(r)
	res.undef = x.undef || y.undef
	return res, nil
}

// ExtS implements arith.extsi: sign extension to a wider type.
func (x Int) ExtS(to uint) Int {
	r := NewInt(to, x.Signed())
	r.undef = x.undef
	return r
}

// ExtU implements arith.extui: zero extension to a wider type.
func (x Int) ExtU(to uint) Int {
	r := NewInt(to, int64(x.bits))
	r.undef = x.undef
	return r
}

// Trunc implements arith.trunci: truncation to a narrower type.
func (x Int) Trunc(to uint) Int {
	r := NewInt(to, int64(x.bits))
	r.undef = x.undef
	return r
}

// IndexCast implements arith.index_cast: a sign-extending (or
// truncating) conversion between index and integer types.
func (x Int) IndexCast(to ir.Type) Int {
	var r Int
	switch t := to.(type) {
	case ir.IndexType:
		r = NewIndex(x.Signed())
	case ir.IntegerType:
		r = NewInt(t.Width, x.Signed())
	default:
		panic(fmt.Sprintf("rtval: index_cast to non-scalar type %v", to))
	}
	r.undef = x.undef
	return r
}

// IndexCastU implements arith.index_castui: a zero-extending (or
// truncating) conversion between index and integer types.
func (x Int) IndexCastU(to ir.Type) Int {
	var r Int
	switch t := to.(type) {
	case ir.IndexType:
		r = NewIndex(int64(x.bits))
	case ir.IntegerType:
		r = NewInt(t.Width, int64(x.bits))
	default:
		panic(fmt.Sprintf("rtval: index_castui to non-scalar type %v", to))
	}
	r.undef = x.undef
	return r
}

// AddUIExtended implements arith.addui_extended, returning the wrapped
// sum and an i1 overflow (carry) flag.
func (x Int) AddUIExtended(y Int) (sum, overflow Int) {
	s := x.bits + y.bits
	var carry bool
	if x.width < 64 {
		// The unmasked sum cannot wrap uint64, so the carry is simply
		// whether the sum exceeded the width's range.
		carry = s > mask(x.width)
	} else {
		carry = s < x.bits
	}
	sum = x.propagateUndef(y, s)
	overflow = Bool(carry)
	overflow.undef = sum.undef
	return sum, overflow
}

// MulSIExtended implements arith.mulsi_extended, returning the low and
// high halves of the full 2N-bit signed product.
func (x Int) MulSIExtended(y Int) (low, high Int) {
	lo, hi := mulFull(uint64(x.Signed()), uint64(y.Signed()))
	low = x.propagateUndef(y, lo)
	high = x.propagateUndef(y, extractHigh(lo, hi, x.width))
	return low, high
}

// MulUIExtended implements arith.mului_extended, returning the low and
// high halves of the full 2N-bit unsigned product.
func (x Int) MulUIExtended(y Int) (low, high Int) {
	lo, hi := umulFull(x.bits, y.bits)
	low = x.propagateUndef(y, lo)
	high = x.propagateUndef(y, extractHigh(lo, hi, x.width))
	return low, high
}

// Select implements arith.select on scalars.
func (x Int) Select(onTrue, onFalse Int) Int {
	var r Int
	if x.IsTrue() {
		r = onTrue
	} else {
		r = onFalse
	}
	r.undef = r.undef || x.undef
	return r
}

// extractHigh returns bits [w, 2w) of a 128-bit product (lo, hi): the
// "high" result of the extended-multiplication ops for width w.
func extractHigh(lo, hi uint64, w uint) uint64 {
	if w == 64 {
		return hi
	}
	return ((lo >> w) | (hi << (64 - w))) & mask(w)
}

// mulFull computes the 128-bit signed product of two sign-extended
// 64-bit patterns, returning (low64, high64).
func mulFull(a, b uint64) (lo, hi uint64) {
	lo, hi = umulFull(a, b)
	// Convert unsigned 128-bit product to signed: subtract the
	// corrections for negative operands.
	if int64(a) < 0 {
		hi -= b
	}
	if int64(b) < 0 {
		hi -= a
	}
	return lo, hi
}

// umulFull computes the 128-bit unsigned product of two 64-bit values.
func umulFull(a, b uint64) (lo, hi uint64) {
	hi, lo = bits.Mul64(a, b)
	return lo, hi
}
