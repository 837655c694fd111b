package ir

import (
	"fmt"
	"strconv"
)

// Builder incrementally constructs IR with automatically numbered SSA
// value IDs. It is the low-level construction convenience used by tests,
// passes and the fuzzer's fragment emitters.
type Builder struct {
	next  int
	block *Block
}

// NewBuilder returns a builder inserting at the end of block, allocating
// IDs starting from firstID.
func NewBuilder(block *Block, firstID int) *Builder {
	return &Builder{next: firstID, block: block}
}

// NextID returns the next fresh SSA id without consuming it.
func (b *Builder) NextID() int { return b.next }

// FreshValue allocates a fresh SSA value of the given type.
func (b *Builder) FreshValue(t Type) Value {
	v := V(strconv.Itoa(b.next), t)
	b.next++
	return v
}

// Insert appends an already-built operation to the insertion block.
func (b *Builder) Insert(op *Operation) *Operation {
	b.block.Append(op)
	return op
}

// Op builds and inserts an operation with fresh results of the given
// types, returning the operation. Use op.Results to obtain the values.
func (b *Builder) Op(name string, operands []Value, resultTypes ...Type) *Operation {
	op := NewOp(name)
	op.Operands = append(op.Operands, operands...)
	for _, t := range resultTypes {
		op.Results = append(op.Results, b.FreshValue(t))
	}
	b.block.Append(op)
	return op
}

// Op1 is Op for the common single-result case, returning the result value.
func (b *Builder) Op1(name string, operands []Value, resultType Type) Value {
	return b.Op(name, operands, resultType).Results[0]
}

// BuildFunc constructs a func.func operation with the given symbol name,
// argument types and result types, and returns the function op together
// with a builder positioned in its entry block. Entry-block arguments are
// named arg0, arg1, ….
func BuildFunc(name string, ins, outs []Type) (*Operation, *Builder) {
	f := NewOp("func.func")
	args := make([]Value, len(ins))
	for i, t := range ins {
		args[i] = V(fmt.Sprintf("arg%d", i), t)
	}
	f.Regions = []*Region{NewRegion(args...)}
	f.Attrs.Set("sym_name", StrAttr(name))
	f.Attrs.Set("function_type", TypeAttrOf(FuncOf(ins, outs)))
	return f, NewBuilder(f.Regions[0].Entry(), 0)
}

// FuncArgs returns the entry-block arguments of a func-like op.
func FuncArgs(f *Operation) []Value {
	if len(f.Regions) == 0 || f.Regions[0].Entry() == nil {
		return nil
	}
	return f.Regions[0].Entry().Args
}
