package ir

import (
	"fmt"
	"strings"
)

// Value is an SSA value reference: an identifier paired with its type.
// This mirrors the paper's Table 1, which embeds MLIR Values as
// (ID, type) pairs; operands and results are both Values.
type Value struct {
	ID   string
	Type Type
}

// V builds a Value.
func V(id string, t Type) Value { return Value{ID: id, Type: t} }

func (v Value) String() string { return "%" + v.ID }

// Successor is a branch target: a block label plus the values forwarded
// as the target block's arguments.
type Successor struct {
	Block string
	Args  []Value
}

// Operation is a single IR operation: a name, operands, results,
// attributes, attached regions and (for terminators of the cf dialect)
// successors. Programming constructs are modelled as Operation instances
// (paper §2).
type Operation struct {
	Name       string
	Operands   []Value
	Results    []Value
	Attrs      *Attrs
	Regions    []*Region
	Successors []Successor
}

// NewOp builds an operation with the given name and empty attribute
// dictionary.
func NewOp(name string) *Operation {
	return &Operation{Name: name, Attrs: NewAttrs()}
}

// Dialect returns the dialect prefix of the operation name
// ("arith.addi" -> "arith"); ops without a dot return the whole name.
func (o *Operation) Dialect() string {
	if i := strings.IndexByte(o.Name, '.'); i >= 0 {
		return o.Name[:i]
	}
	return o.Name
}

// Clone returns a deep copy of the operation. Child slices are
// allocated at exact capacity up front: Clone is the compile hot
// path's dominant allocator, and append-from-nil growth would roughly
// double its allocation count.
func (o *Operation) Clone() *Operation {
	c := &Operation{
		Name:     o.Name,
		Operands: append([]Value(nil), o.Operands...),
		Results:  append([]Value(nil), o.Results...),
		Attrs:    o.Attrs.Clone(),
	}
	if len(o.Regions) > 0 {
		c.Regions = make([]*Region, len(o.Regions))
		for i, r := range o.Regions {
			c.Regions[i] = r.Clone()
		}
	}
	if len(o.Successors) > 0 {
		c.Successors = make([]Successor, len(o.Successors))
		for i, s := range o.Successors {
			c.Successors[i] = Successor{
				Block: s.Block,
				Args:  append([]Value(nil), s.Args...),
			}
		}
	}
	return c
}

// Walk visits o and every operation nested in its regions in depth-first
// pre-order (the traversal order underlying the paper's Definition 3.1 of
// prefixes). Returning false from fn stops the walk.
func (o *Operation) Walk(fn func(*Operation) bool) bool {
	if !fn(o) {
		return false
	}
	for _, r := range o.Regions {
		for _, b := range r.Blocks {
			for _, op := range b.Ops {
				if !op.Walk(fn) {
					return false
				}
			}
		}
	}
	return true
}

// Region is a piece of IR attached to an operation: an ordered list of
// blocks. A region provides a scope: it can access values defined within
// it and — depending on the enclosing operation's scoping discipline —
// values of parent regions.
type Region struct {
	Blocks []*Block
}

// NewRegion builds a region containing a single entry block with the
// given arguments.
func NewRegion(args ...Value) *Region {
	return &Region{Blocks: []*Block{{Label: "bb0", Args: args}}}
}

// Entry returns the region's first block, or nil for an empty region.
func (r *Region) Entry() *Block {
	if len(r.Blocks) == 0 {
		return nil
	}
	return r.Blocks[0]
}

// Block returns the block with the given label, or nil.
func (r *Region) Block(label string) *Block {
	for _, b := range r.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// Clone returns a deep copy of the region.
func (r *Region) Clone() *Region {
	c := &Region{}
	if len(r.Blocks) > 0 {
		c.Blocks = make([]*Block, len(r.Blocks))
		for i, b := range r.Blocks {
			c.Blocks[i] = b.Clone()
		}
	}
	return c
}

// Block is a labelled sequence of operations with block arguments. The
// final operation of a complete block is a terminator.
type Block struct {
	Label string
	Args  []Value
	Ops   []*Operation
}

// Append adds ops to the end of the block.
func (b *Block) Append(ops ...*Operation) { b.Ops = append(b.Ops, ops...) }

// Terminator returns the block's final operation, or nil if empty.
func (b *Block) Terminator() *Operation {
	if len(b.Ops) == 0 {
		return nil
	}
	return b.Ops[len(b.Ops)-1]
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	c := &Block{Label: b.Label, Args: append([]Value(nil), b.Args...)}
	if len(b.Ops) > 0 {
		c.Ops = make([]*Operation, len(b.Ops))
		for i, op := range b.Ops {
			c.Ops[i] = op.Clone()
		}
	}
	return c
}

// Module is the root of an IR tree: a builtin.module operation holding a
// single region with a single block whose operations are (typically)
// func.func definitions.
type Module struct {
	Op *Operation
}

// NewModule builds an empty module.
func NewModule() *Module {
	op := NewOp("builtin.module")
	op.Regions = []*Region{NewRegion()}
	return &Module{Op: op}
}

// Body returns the module's top-level block.
func (m *Module) Body() *Block { return m.Op.Regions[0].Entry() }

// Funcs returns every top-level func.func (or llvm.func) operation.
func (m *Module) Funcs() []*Operation {
	var fs []*Operation
	for _, op := range m.Body().Ops {
		if op.Name == "func.func" || op.Name == "llvm.func" {
			fs = append(fs, op)
		}
	}
	return fs
}

// Func returns the function with the given symbol name, or nil.
func (m *Module) Func(name string) *Operation {
	for _, f := range m.Funcs() {
		if sym, _ := f.Attrs.StringValueOf("sym_name"); sym == name {
			return f
		}
	}
	return nil
}

// Clone returns a deep copy of the module.
func (m *Module) Clone() *Module { return &Module{Op: m.Op.Clone()} }

// Walk visits every operation in the module in depth-first pre-order.
func (m *Module) Walk(fn func(*Operation) bool) { m.Op.Walk(fn) }

// NumOps returns the number of operations in the module, excluding the
// module operation itself.
func (m *Module) NumOps() int {
	n := -1
	m.Walk(func(*Operation) bool { n++; return true })
	return n
}

// String prints the module in the generic textual format.
func (m *Module) String() string { return Print(m) }

// FuncSymbol extracts the symbol name of a func-like operation.
func FuncSymbol(f *Operation) string {
	s, _ := f.Attrs.StringValueOf("sym_name")
	return s
}

// FuncType extracts the function type of a func-like operation.
func FuncType(f *Operation) (FunctionType, error) {
	ta, ok := f.Attrs.Get("function_type").(TypeAttr)
	if !ok {
		return FunctionType{}, fmt.Errorf("ir: %s missing function_type attribute", f.Name)
	}
	ft, ok := ta.Type.(FunctionType)
	if !ok {
		return FunctionType{}, fmt.Errorf("ir: %s function_type is not a function type", f.Name)
	}
	return ft, nil
}
