// Structural fingerprinting. Fingerprint hashes everything Print would
// render — op names, SSA ids, types, attributes (constant payloads
// included), successors and nested regions — without building the text:
// the walk allocates nothing for the in-tree type and attribute
// inventory. Two modules with equal printed forms always have equal
// fingerprints; the converse holds only up to hash collision, so the
// fingerprint is an identity *filter*, not an identity: the campaign
// uses it to name a detecting program in a plan-mode verdict, and a
// caller that needs exactness must compare printed forms.
package ir

// Fingerprint returns a 64-bit structural hash of the module.
func Fingerprint(m *Module) uint64 {
	h := fnvOffset64
	for _, op := range m.Body().Ops {
		h = hashOp(h, op)
	}
	return h
}

// FNV-1a, inlined so the walk stays allocation-free.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	// Length separator: distinguishes "ab","c" from "a","bc".
	return hashUint64(h, uint64(len(s)))
}

func hashUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

func hashInt64s(h uint64, vs []int64) uint64 {
	h = hashUint64(h, uint64(len(vs)))
	for _, v := range vs {
		h = hashUint64(h, uint64(v))
	}
	return h
}

func hashOp(h uint64, op *Operation) uint64 {
	h = hashString(h, op.Name)
	h = hashUint64(h, uint64(len(op.Operands)))
	for _, v := range op.Operands {
		h = hashValue(h, v)
	}
	h = hashUint64(h, uint64(len(op.Results)))
	for _, v := range op.Results {
		h = hashValue(h, v)
	}
	if op.Attrs != nil {
		h = hashUint64(h, uint64(op.Attrs.Len()))
		// Direct field iteration: a callback iterator would make h
		// escape and cost one allocation per op.
		for i, k := range op.Attrs.keys {
			h = hashString(h, k)
			h = hashAttr(h, op.Attrs.vals[i])
		}
	}
	h = hashUint64(h, uint64(len(op.Successors)))
	for i := range op.Successors {
		s := &op.Successors[i]
		h = hashString(h, s.Block)
		h = hashUint64(h, uint64(len(s.Args)))
		for _, v := range s.Args {
			h = hashValue(h, v)
		}
	}
	h = hashUint64(h, uint64(len(op.Regions)))
	for _, r := range op.Regions {
		h = hashRegion(h, r)
	}
	return h
}

func hashRegion(h uint64, r *Region) uint64 {
	h = hashUint64(h, uint64(len(r.Blocks)))
	for _, b := range r.Blocks {
		h = hashString(h, b.Label)
		h = hashUint64(h, uint64(len(b.Args)))
		for _, v := range b.Args {
			h = hashValue(h, v)
		}
		h = hashUint64(h, uint64(len(b.Ops)))
		for _, op := range b.Ops {
			h = hashOp(h, op)
		}
	}
	return h
}

func hashValue(h uint64, v Value) uint64 {
	h = hashString(h, v.ID)
	return hashType(h, v.Type)
}

func hashType(h uint64, t Type) uint64 {
	switch tt := t.(type) {
	case nil:
		return hashByte(h, 0)
	case IntegerType:
		return hashUint64(hashByte(h, 1), uint64(tt.Width))
	case IndexType:
		return hashByte(h, 2)
	case TensorType:
		return hashType(hashInt64s(hashByte(h, 3), tt.Shape), tt.Elem)
	case MemRefType:
		return hashType(hashInt64s(hashByte(h, 4), tt.Shape), tt.Elem)
	case VectorType:
		return hashType(hashInt64s(hashByte(h, 5), tt.Shape), tt.Elem)
	case FunctionType:
		h = hashByte(h, 6)
		h = hashUint64(h, uint64(len(tt.Inputs)))
		for _, in := range tt.Inputs {
			h = hashType(h, in)
		}
		h = hashUint64(h, uint64(len(tt.Results)))
		for _, out := range tt.Results {
			h = hashType(h, out)
		}
		return h
	case NoneType:
		return hashByte(h, 7)
	default:
		// Out-of-tree type: fall back to its canonical text.
		return hashString(hashByte(h, 255), t.String())
	}
}

func hashAttr(h uint64, a Attribute) uint64 {
	switch at := a.(type) {
	case nil:
		return hashByte(h, 0)
	case IntegerAttr:
		return hashType(hashUint64(hashByte(h, 1), uint64(at.Value)), at.Type)
	case StringAttr:
		return hashString(hashByte(h, 2), at.Value)
	case SymbolRefAttr:
		return hashString(hashByte(h, 3), at.Name)
	case TypeAttr:
		return hashType(hashByte(h, 4), at.Type)
	case UnitAttr:
		return hashByte(h, 5)
	case ArrayAttr:
		h = hashByte(h, 6)
		h = hashUint64(h, uint64(len(at.Elems)))
		for _, e := range at.Elems {
			h = hashAttr(h, e)
		}
		return h
	case DenseIntAttr:
		h = hashByte(h, 7)
		if at.Splat {
			h = hashByte(h, 1)
		}
		h = hashInt64s(h, at.Values)
		return hashType(h, at.Type)
	case AffineMapAttr:
		h = hashByte(h, 8)
		h = hashUint64(h, uint64(at.NumDims))
		h = hashUint64(h, uint64(len(at.Results)))
		for _, r := range at.Results {
			h = hashUint64(h, uint64(r))
		}
		return h
	default:
		// Out-of-tree attribute: fall back to its canonical text.
		return hashString(hashByte(h, 255), a.String())
	}
}
