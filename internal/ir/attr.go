package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Attribute is the interface implemented by all compile-time attribute
// values attached to operations (the paper embeds attributes as arguments
// to effect constructors; here they are plain data).
type Attribute interface {
	// String returns the canonical textual form of the attribute as it
	// appears in the generic format, e.g. `-1 : i64`, `"main"`, `@callee`.
	String() string

	isAttribute()
}

// IntegerAttr is a typed integer constant, e.g. `-1 : i1` or `9 : index`.
// Value stores the two's-complement bit pattern sign-extended to 64 bits.
type IntegerAttr struct {
	Value int64
	Type  Type // IntegerType or IndexType
}

// IntAttr builds an IntegerAttr.
func IntAttr(v int64, t Type) IntegerAttr { return IntegerAttr{Value: v, Type: t} }

func (a IntegerAttr) String() string {
	return strconv.FormatInt(a.Value, 10) + " : " + a.Type.String()
}
func (IntegerAttr) isAttribute() {}

// StringAttr is a quoted string, e.g. `"main"`.
type StringAttr struct {
	Value string
}

// StrAttr builds a StringAttr.
func StrAttr(s string) StringAttr { return StringAttr{Value: s} }

func (a StringAttr) String() string { return strconv.Quote(a.Value) }
func (StringAttr) isAttribute()     {}

// SymbolRefAttr references a symbol (function) by name, e.g. `@main`.
type SymbolRefAttr struct {
	Name string
}

// SymbolAttr builds a SymbolRefAttr.
func SymbolAttr(name string) SymbolRefAttr { return SymbolRefAttr{Name: name} }

func (a SymbolRefAttr) String() string { return "@" + a.Name }
func (SymbolRefAttr) isAttribute()     {}

// TypeAttr wraps a type used as an attribute, e.g. a function's
// `function_type`.
type TypeAttr struct {
	Type Type
}

// TypeAttrOf builds a TypeAttr.
func TypeAttrOf(t Type) TypeAttr { return TypeAttr{Type: t} }

func (a TypeAttr) String() string { return a.Type.String() }
func (TypeAttr) isAttribute()     {}

// UnitAttr is a presence-only attribute (printed as `unit`).
type UnitAttr struct{}

func (UnitAttr) String() string { return "unit" }
func (UnitAttr) isAttribute()   {}

// ArrayAttr is an ordered list of attributes, e.g. `[0, 1]`.
type ArrayAttr struct {
	Elems []Attribute
}

// ArrayAttrOf builds an ArrayAttr.
func ArrayAttrOf(elems ...Attribute) ArrayAttr {
	return ArrayAttr{Elems: append([]Attribute(nil), elems...)}
}

func (a ArrayAttr) String() string {
	parts := make([]string, len(a.Elems))
	for i, e := range a.Elems {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
func (ArrayAttr) isAttribute() {}

// DenseIntAttr is a dense integer tensor literal, e.g.
// `dense<[1, 2, 3]> : tensor<3xi64>`. Values are stored in row-major
// order as sign-extended 64-bit patterns. A splat (single value) is
// printed without brackets.
type DenseIntAttr struct {
	Values []int64
	Type   TensorType
	Splat  bool
}

// DenseAttr builds a DenseIntAttr from row-major values.
func DenseAttr(values []int64, t TensorType) DenseIntAttr {
	return DenseIntAttr{Values: append([]int64(nil), values...), Type: t}
}

// SplatAttr builds a splat DenseIntAttr in which every element is v.
func SplatAttr(v int64, t TensorType) DenseIntAttr {
	return DenseIntAttr{Values: []int64{v}, Type: t, Splat: true}
}

func (a DenseIntAttr) String() string {
	var b strings.Builder
	b.WriteString("dense<")
	if a.Splat {
		fmt.Fprintf(&b, "%d", a.Values[0])
	} else {
		b.WriteByte('[')
		for i, v := range a.Values {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(']')
	}
	b.WriteString("> : ")
	b.WriteString(a.Type.String())
	return b.String()
}
func (DenseIntAttr) isAttribute() {}

// AffineMapAttr is a simplified affine map supporting exactly the subset
// Ratte's linalg.generic generator uses: pure dimension permutations
// (and projections of them), e.g. `affine_map<(d0, d1) -> (d1, d0)>`.
// Results[i] is the input dimension index selected for output i.
type AffineMapAttr struct {
	NumDims int
	Results []int
}

// PermutationMap builds an AffineMapAttr selecting the given dims.
func PermutationMap(numDims int, results ...int) AffineMapAttr {
	return AffineMapAttr{NumDims: numDims, Results: append([]int(nil), results...)}
}

// IdentityMap builds the identity affine map on n dims.
func IdentityMap(n int) AffineMapAttr {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return AffineMapAttr{NumDims: n, Results: r}
}

// IsPermutation reports whether the map is a bijection on its dims.
func (a AffineMapAttr) IsPermutation() bool {
	if len(a.Results) != a.NumDims {
		return false
	}
	seen := make([]bool, a.NumDims)
	for _, r := range a.Results {
		if r < 0 || r >= a.NumDims || seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

func (a AffineMapAttr) String() string {
	var b strings.Builder
	b.WriteString("affine_map<(")
	for i := 0; i < a.NumDims; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "d%d", i)
	}
	b.WriteString(") -> (")
	for i, r := range a.Results {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "d%d", r)
	}
	b.WriteString(")>")
	return b.String()
}
func (AffineMapAttr) isAttribute() {}

// Attrs is an ordered attribute dictionary. Order is preserved so that
// printing is deterministic and round-trips through the parser.
//
// The representation is a pair of parallel slices, not a map: real
// operations carry a handful of attributes at most, linear scans beat
// map hashing at that size, and — decisively for the compile hot path,
// where module cloning is the dominant allocator — Clone becomes two
// slice copies instead of a map allocation per operation.
type Attrs struct {
	keys []string
	vals []Attribute
}

// NewAttrs builds an attribute dictionary from alternating key/value
// pairs supplied via Set.
func NewAttrs() *Attrs {
	return &Attrs{}
}

func (a *Attrs) index(key string) int {
	for i, k := range a.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Set inserts or replaces the attribute named key.
func (a *Attrs) Set(key string, val Attribute) {
	if i := a.index(key); i >= 0 {
		a.vals[i] = val
		return
	}
	a.keys = append(a.keys, key)
	a.vals = append(a.vals, val)
}

// Get returns the attribute named key, or nil if absent.
func (a *Attrs) Get(key string) Attribute {
	if a == nil {
		return nil
	}
	if i := a.index(key); i >= 0 {
		return a.vals[i]
	}
	return nil
}

// Has reports whether the dictionary contains key.
func (a *Attrs) Has(key string) bool { return a.Get(key) != nil }

// Delete removes the attribute named key if present.
func (a *Attrs) Delete(key string) {
	if a == nil {
		return
	}
	for i, k := range a.keys {
		if k == key {
			a.keys = append(a.keys[:i], a.keys[i+1:]...)
			a.vals = append(a.vals[:i], a.vals[i+1:]...)
			break
		}
	}
}

// Len returns the number of attributes.
func (a *Attrs) Len() int {
	if a == nil {
		return 0
	}
	return len(a.keys)
}

// Keys returns the attribute names in insertion order.
func (a *Attrs) Keys() []string {
	if a == nil {
		return nil
	}
	return append([]string(nil), a.keys...)
}

// Clone returns a deep copy of the dictionary (attribute values are
// immutable and shared): two exact-size slice copies, nothing more.
// Clone dominates the compile hot path — every branch of a shared
// prefix tree starts from a cloned module — which is the reason Attrs
// is slice-backed in the first place.
func (a *Attrs) Clone() *Attrs {
	if a == nil || len(a.keys) == 0 {
		return NewAttrs()
	}
	return &Attrs{
		keys: append(make([]string, 0, len(a.keys)), a.keys...),
		vals: append(make([]Attribute, 0, len(a.vals)), a.vals...),
	}
}

func (a *Attrs) String() string {
	if a.Len() == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range a.keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		if _, isUnit := a.vals[i].(UnitAttr); isUnit {
			continue
		}
		b.WriteString(" = ")
		b.WriteString(a.vals[i].String())
	}
	b.WriteByte('}')
	return b.String()
}

// IntValueOf extracts the integer payload of an IntegerAttr stored under
// key; ok is false when the key is absent or holds a different kind.
func (a *Attrs) IntValueOf(key string) (int64, bool) {
	ia, ok := a.Get(key).(IntegerAttr)
	if !ok {
		return 0, false
	}
	return ia.Value, true
}

// StringValueOf extracts the payload of a StringAttr stored under key.
func (a *Attrs) StringValueOf(key string) (string, bool) {
	sa, ok := a.Get(key).(StringAttr)
	if !ok {
		return "", false
	}
	return sa.Value, true
}
