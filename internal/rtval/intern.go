// Small-value interning: pre-boxed Value views of the Ints the hot
// paths produce over and over — loop counters, comparison results,
// generated-program constants. Converting an Int (a 24-byte struct) to
// the Value interface heap-allocates a copy every time; in interpreter
// loops that boxing is a dominant per-iteration allocation (every
// binding is an interface value). Interning mirrors
// what package ir does for scalar types: one immutable boxed copy per
// (type, small value), shared by every reader.
//
// The tables are built once at init and never mutated, so returning a
// shared boxed value is safe from any number of goroutines. Sharing is
// semantically invisible: Int is an immutable value type, and nothing
// in the interpreter compares Values by interface identity.
package rtval

// Interned signed-value range. The low end covers the small negative
// constants generators favour (including all of i8); the high end
// covers realistic loop trip counts so induction variables stay
// allocation-free. ~2k entries across 6 width classes keeps the
// resident cost to a few hundred kilobytes.
const (
	internMin = -128
	internMax = 2047
)

// internClasses fixes the width classes with a table: the iN widths the
// generator and the lowering pipeline actually emit, plus index.
var internClasses = [...]struct {
	width   uint
	isIndex bool
}{
	{1, false},
	{8, false},
	{16, false},
	{32, false},
	{64, false},
	{64, true},
}

var internTables [len(internClasses)][]Value

func init() {
	for ci, c := range internClasses {
		tbl := make([]Value, internMax-internMin+1)
		for s := internMin; s <= internMax; s++ {
			var v Int
			if c.isIndex {
				v = NewIndex(int64(s))
			} else {
				v = NewInt(c.width, int64(s))
			}
			// Skip values the width cannot represent (an i1 can only be
			// 0 or -1): the lookup in Box never reaches them, but a nil
			// entry keeps the table honest.
			if v.Signed() != int64(s) {
				continue
			}
			tbl[s-internMin] = v
		}
		internTables[ci] = tbl
	}
}

// internClass maps a width to its table index, -1 when uninterned.
func internClass(width uint, isIndex bool) int {
	if isIndex {
		if width == 64 {
			return 5
		}
		return -1
	}
	switch width {
	case 1:
		return 0
	case 8:
		return 1
	case 16:
		return 2
	case 32:
		return 3
	case 64:
		return 4
	}
	return -1
}

// Box converts an Int to a Value, returning a shared pre-boxed copy
// when the value is a defined, small-magnitude integer of a common
// width — the no-allocation fast path for loop counters, i1 flags and
// small constants. Out-of-range or undef values box normally. Box(x)
// is observationally identical to a plain interface conversion of x.
func Box(x Int) Value {
	if !x.undef {
		if ci := internClass(x.width, x.isIndex); ci >= 0 {
			if s := x.Signed(); s >= internMin && s <= internMax {
				if v := internTables[ci][s-internMin]; v != nil {
					return v
				}
			}
		}
	}
	return x
}
