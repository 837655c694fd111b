// Compiled execution engine: the ahead-of-time companion of the tree
// walker in interp.go.
//
// The tree walker pays three per-step costs that are invariant across
// runs of the same module: kernel dispatch through a string-keyed map,
// operand resolution through a string-keyed scoped environment, and
// operand/result type-compatibility checks whose outcome is fully
// determined by declared types. Ratte fixes the kernel set per dialect
// combination when the Registry is composed (the paper's handler
// composition), and a module's SSA structure is fixed at parse time —
// so all three costs can be paid once, in Compile, and amortised over
// the runs of that one program. On generated modules a compile plus
// one run costs three to four tree walks, and a compile plus four runs
// still costs more than four walks, so compiling pays only for a
// caller that runs one module many times. A campaign's single run per
// build configuration goes through Interpreter.Run, which tree-walks;
// a batched family compiles each lowered module once for its members.
//
// Compile walks each function once and emits a CompiledProgram:
//
//   - each op carries its kernel (or terminator kernel) pointer — no
//     map lookup per step;
//   - each SSA id is resolved to an integer slot in a flat per-call
//     Frame ([]rtval.Value) — no scoped-map lookup per operand;
//   - operand type checks are dropped where every possible writer of
//     the slot has the same declared type as the use (the check could
//     never fire);
//   - branch targets are resolved to block indices.
//
// The engine executes through the same Context type and the same
// kernels as the tree walker: kernels still call ctx.Get / ctx.Define /
// ctx.RunRegion, and those entry points dispatch on the context's mode.
// That is what makes byte-identical Results tractable — the semantics
// (kernels) are shared, only the environment plumbing differs — and it
// is checked end-to-end by the interp-engine-agreement conformance
// oracle.
//
// Soundness of static slot resolution rests on one discipline of the
// effects layer: bindings are only ever written in the innermost scope
// (Table.Bind), so which binding a use sees is a lexical question. Two
// dynamic behaviours still need runtime emulation: a pre-allocated slot
// that has not been written this entry reads as nil (matching "use of
// undefined value"), with shadow chains falling through to outer
// bindings exactly like Table.Lookup; and a kernel entering a region
// IsolatedFromAbove hides outer slots via a depth floor check.
package interp

import (
	"fmt"

	"ratte/internal/ir"
	"ratte/internal/scoped"
)

// CompiledProgram is a module compiled against one Registry: every
// function's regions walked once, kernels resolved, ids slotted. It is
// immutable after Compile and safe for concurrent RunProgram calls
// (each run gets its own Context and Frame).
type CompiledProgram struct {
	registry *Registry
	opts     CompileOptions
	// setupErr replays, at RunProgram time, the error the tree walker's
	// Run would raise while building the function table (unsupported
	// top-level op, missing sym_name, duplicate function).
	setupErr error
	funcs    map[string]*compiledFunc
	// regions maps every region in the module to its compiled form, for
	// the RunRegion dispatch (kernels hand us *ir.Region pointers).
	regions map[*ir.Region]*compiledRegion
	// Fusion accounting (see fuse.go): maxRegs sizes the per-context
	// register file; stats records the fusion decisions for telemetry.
	maxRegs int
	stats   FusionStats
}

// Registry returns the registry the program was compiled against.
func (p *CompiledProgram) Registry() *Registry { return p.registry }

// compiledFunc is one function: its compiled body plus everything
// CallFunc needs pre-resolved (function type, frame size) and a pool of
// frames sized for it.
type compiledFunc struct {
	op       *ir.Operation
	name     string
	ft       ir.FunctionType
	ftErr    error
	numSlots int
	body     *compiledRegion
	frames   framePool
}

// compiledRegion is one region: its blocks compiled, the contiguous
// slot range its own bindings occupy (cleared wholesale on entry, so a
// re-entered region — an scf.for body on its next iteration — starts
// with every local binding undefined, exactly like a fresh Table
// scope), and its scope depth for the isolation floor check.
type compiledRegion struct {
	region *ir.Region
	depth  int
	slotLo int
	slotHi int
	blocks []compiledBlock
}

// compiledBlock is one block: arg binding records plus compiled ops.
// fblock, when set, is the block's fully-fused form (every op fusable,
// terminator included — see fuse.go); the generic loop enters it
// instead of dispatching ops.
type compiledBlock struct {
	label  string
	args   []argBind
	ops    []compiledOp
	fblock *fusedBlock
}

// argBind binds one incoming value to a block argument's slot; check
// records whether the Define-side type check can fire (it cannot when
// every branch feeding the block passes a value already validated at a
// TypeEqual declared type).
type argBind struct {
	id    string
	typ   ir.Type
	slot  int
	check bool
}

// operandMeta is one resolved value use (op operand or successor
// argument): the slot (and scope depth) a runtime Lookup would find,
// plus the shadow chain for pre-allocated-but-unwritten inner slots.
// check records whether the read-side type check can fire. slot < 0
// means the id can never be bound on this path (the tree walker would
// report "use of undefined value"); the slow path preserves that.
type operandMeta struct {
	id    string
	typ   ir.Type
	slot  int
	depth int
	alts  []scoped.SlotRef
	check bool
}

// compiledSucc is one branch target: the successor record the
// terminator kernel returns by pointer (&op.Successors[i]), its
// resolved block index (-1 if the label does not exist — the tree
// walker only discovers that after evaluating the branch args, so we
// must too), and the branch-argument reads.
type compiledSucc struct {
	succ     *ir.Successor
	blockIdx int
	args     []operandMeta
}

// compiledOp is one operation, everything about its execution
// pre-resolved. Exactly one of kernel / term / fail is set; fail is
// returned only if the op is actually reached, preserving the tree
// walker's semantics for unregistered ops in dead code.
type compiledOp struct {
	op     *ir.Operation
	kernel Kernel
	term   TerminatorKernel
	fail   error
	// ambig is set when two operands share an id at different declared
	// types; Get must then match on type as well as id.
	ambig    bool
	operands []operandMeta
	results  []operandMeta
	regions  []*compiledRegion
	succs    []compiledSucc
	// fused, when set, replaces this op and the next fuseSkip ops of
	// its block with one superinstruction (see fuse.go). The original
	// records stay in place so slotOf and successor resolution are
	// unaffected; only the dispatch loop consults fused. ffor, when
	// set, replaces this op's kernel with the native fused loop.
	fused    *fusedRun
	fuseSkip int
	ffor     *fusedFor
}

// CompileOptions tunes compilation. The zero value is the default
// configuration (fusion enabled).
type CompileOptions struct {
	// DisableFusion turns superinstruction fusion off, compiling every
	// op to its own dispatch record. The engine-agreement oracle uses
	// it to pin fused and unfused execution byte-identical.
	DisableFusion bool
}

// Compile walks the module once and builds its compiled form over the
// given registry, with default options. Compile never fails: structural
// errors the tree walker would raise at run time (unsupported top-level
// ops, missing kernels, unknown branch targets) are captured and
// replayed with identical messages when — and only when — execution
// would reach them.
func Compile(r *Registry, m *ir.Module) *CompiledProgram {
	return CompileWith(r, m, CompileOptions{})
}

// CompileWith is Compile with explicit options.
func CompileWith(r *Registry, m *ir.Module, opts CompileOptions) *CompiledProgram {
	p := &CompiledProgram{
		registry: r,
		opts:     opts,
		funcs:    make(map[string]*compiledFunc),
		regions:  make(map[*ir.Region]*compiledRegion),
	}
	for _, op := range m.Body().Ops {
		switch op.Name {
		case "func.func", "llvm.func":
			name := ir.FuncSymbol(op)
			if name == "" {
				p.setupErr = fmt.Errorf("interp: function without sym_name")
				return p
			}
			if _, dup := p.funcs[name]; dup {
				p.setupErr = fmt.Errorf("interp: duplicate function @%s", name)
				return p
			}
			p.funcs[name] = p.compileFunc(op, name)
		default:
			p.setupErr = fmt.Errorf("interp: unsupported top-level operation %s", op.Name)
			return p
		}
	}
	return p
}

// slotWriters accumulates, per slot, the declared types of everything
// that can write it (op results and block-argument binds). A slot whose
// writers all agree on one declared type lets reads at that same type
// skip the runtime compatibility check.
type slotWriters struct {
	types []ir.Type // uniform declared type per slot; nil once conflicting
	seen  []bool
}

func (w *slotWriters) record(slot int, t ir.Type) {
	for slot >= len(w.types) {
		w.types = append(w.types, nil)
		w.seen = append(w.seen, false)
	}
	if !w.seen[slot] {
		w.types[slot], w.seen[slot] = t, true
		return
	}
	if w.types[slot] != nil && !ir.TypeEqual(w.types[slot], t) {
		w.types[slot] = nil
	}
}

func (w *slotWriters) uniform(slot int) ir.Type {
	if slot < 0 || slot >= len(w.types) {
		return nil
	}
	return w.types[slot]
}

// arenaSizes counts, ahead of compilation, every record a function's
// compiled form will need. Compile runs once per module execution in a
// fuzzing campaign (programs are run once per build configuration, then
// discarded), so its allocation volume is GC pressure on the whole
// campaign; bulk-allocating each record kind once and carving shrinks a
// compile from hundreds of allocations to about a dozen.
type arenaSizes struct {
	regions    int // compiledRegion records
	opRegions  int // entries of compiledOp.regions pointer slices
	blocks     int
	ops        int
	args       int // argBind records
	metas      int // operandMeta records (operands + results + succ args)
	succs      int
}

func countRegion(r *ir.Region, n *arenaSizes) {
	n.regions++
	n.blocks += len(r.Blocks)
	for _, b := range r.Blocks {
		n.args += len(b.Args)
		n.ops += len(b.Ops)
		for _, op := range b.Ops {
			n.metas += len(op.Operands) + len(op.Results)
			n.succs += len(op.Successors)
			for i := range op.Successors {
				n.metas += len(op.Successors[i].Args)
			}
			n.opRegions += len(op.Regions)
			for _, sub := range op.Regions {
				countRegion(sub, n)
			}
		}
	}
}

// compileArena is the carved storage. take slices keep exact capacity,
// so an accidental append cannot bleed into a neighbour's records.
type compileArena struct {
	regions    []compiledRegion
	regionPtrs []*compiledRegion
	blocks     []compiledBlock
	ops        []compiledOp
	args       []argBind
	metas      []operandMeta
	succs      []compiledSucc
}

func newCompileArena(n arenaSizes) *compileArena {
	return &compileArena{
		regions:    make([]compiledRegion, n.regions),
		regionPtrs: make([]*compiledRegion, n.opRegions),
		blocks:     make([]compiledBlock, n.blocks),
		ops:        make([]compiledOp, n.ops),
		args:       make([]argBind, n.args),
		metas:      make([]operandMeta, n.metas),
		succs:      make([]compiledSucc, n.succs),
	}
}

func (a *compileArena) region() *compiledRegion {
	cr := &a.regions[0]
	a.regions = a.regions[1:]
	return cr
}

func (a *compileArena) takeRegionPtrs(n int) []*compiledRegion {
	s := a.regionPtrs[:n:n]
	a.regionPtrs = a.regionPtrs[n:]
	return s
}

func (a *compileArena) takeBlocks(n int) []compiledBlock {
	s := a.blocks[:n:n]
	a.blocks = a.blocks[n:]
	return s
}

func (a *compileArena) takeOps(n int) []compiledOp {
	s := a.ops[:n:n]
	a.ops = a.ops[n:]
	return s
}

func (a *compileArena) takeArgs(n int) []argBind {
	s := a.args[:n:n]
	a.args = a.args[n:]
	return s
}

func (a *compileArena) takeMetas(n int) []operandMeta {
	s := a.metas[:n:n]
	a.metas = a.metas[n:]
	return s
}

func (a *compileArena) takeSuccs(n int) []compiledSucc {
	s := a.succs[:n:n]
	a.succs = a.succs[n:]
	return s
}

func (p *CompiledProgram) compileFunc(f *ir.Operation, name string) *compiledFunc {
	cf := &compiledFunc{op: f, name: name}
	cf.ft, cf.ftErr = ir.FuncType(f)
	if len(f.Regions) == 0 {
		return cf
	}
	var n arenaSizes
	countRegion(f.Regions[0], &n)
	a := newCompileArena(n)
	st := scoped.NewSlotTable()
	w := &slotWriters{}
	cf.body = p.compileRegion(f.Regions[0], st, w, a)
	cf.numSlots = st.NumSlots()
	cf.frames.init(cf.numSlots)
	hoistChecks(cf.body, w)
	// Fusion runs last: it consumes the final operand metas (checks
	// hoisted) and the full slot count for its read analysis.
	if !p.opts.DisableFusion {
		p.fuseFunc(cf)
	}
	return cf
}

// compileRegion compiles one region in the current slot-table context.
// All bindings the region can ever create (block arguments and op
// results, across every block) are allocated up front in one contiguous
// range; operand uses then resolve against the full table. Runtime nil
// checks make the up-front allocation sound: a slot the dynamic
// execution has not written yet reads as undefined, and shadow chains
// fall through to outer bindings, exactly matching Table.Lookup at any
// point of a dynamic execution order.
func (p *CompiledProgram) compileRegion(r *ir.Region, st *scoped.SlotTable, w *slotWriters, a *compileArena) *compiledRegion {
	cr := a.region()
	cr.region, cr.depth = r, st.Depth()
	p.regions[r] = cr
	// The compile-time scope kind is always Standard: in-tree kernels
	// only ever run attached regions Standard, and function-level
	// isolation is handled by per-function frames. A kernel that does
	// pass IsolatedFromAbove at run time is handled by the execution
	// engine's depth floor, not by resolution.
	st.Push(scoped.Standard)
	cr.slotLo = st.Next()
	for _, b := range r.Blocks {
		for _, a := range b.Args {
			st.Alloc(a.ID)
		}
		for _, op := range b.Ops {
			for _, res := range op.Results {
				st.Alloc(res.ID)
			}
		}
	}
	cr.slotHi = st.Next()

	cr.blocks = a.takeBlocks(len(r.Blocks))
	for bi, b := range r.Blocks {
		cb := &cr.blocks[bi]
		cb.label = b.Label
		cb.args = a.takeArgs(len(b.Args))
		for i, arg := range b.Args {
			ref, _ := st.Resolve(arg.ID) // always the slot allocated above
			w.record(ref.Slot, arg.Type)
			cb.args[i] = argBind{id: arg.ID, typ: arg.Type, slot: ref.Slot, check: true}
		}
		cb.ops = a.takeOps(len(b.Ops))
		for i, op := range b.Ops {
			p.compileOp(&cb.ops[i], op, st, w, a)
		}
		for i := range cb.ops {
			for j := range cb.ops[i].succs {
				s := &cb.ops[i].succs[j]
				s.blockIdx = -1
				// First label wins, matching Region.Block's linear scan;
				// block counts are small enough that a map would cost
				// more to build than the scans it saves.
				for k := range r.Blocks {
					if r.Blocks[k].Label == s.succ.Block {
						s.blockIdx = k
						break
					}
				}
			}
		}
	}
	st.Pop()
	return cr
}

func (p *CompiledProgram) compileOp(cop *compiledOp, op *ir.Operation, st *scoped.SlotTable, w *slotWriters, a *compileArena) {
	cop.op = op
	p.stats.TotalOps++
	if tk, ok := p.registry.terminators[op.Name]; ok {
		cop.term = tk
	} else if k, ok := p.registry.kernels[op.Name]; ok {
		cop.kernel = k
	} else {
		cop.fail = fmt.Errorf("interp: no semantics registered for %s", op.Name)
	}

	cop.operands = a.takeMetas(len(op.Operands))
	for i, v := range op.Operands {
		cop.operands[i] = resolveUse(v, st)
		for j := 0; j < i; j++ {
			if cop.operands[j].id == v.ID && !ir.TypeEqual(cop.operands[j].typ, v.Type) {
				cop.ambig = true
			}
		}
	}
	cop.results = a.takeMetas(len(op.Results))
	for i, v := range op.Results {
		ref, _ := st.Resolve(v.ID) // pre-allocated in the region pre-pass
		cop.results[i] = operandMeta{id: v.ID, typ: v.Type, slot: ref.Slot, depth: ref.Depth, check: true}
		w.record(ref.Slot, v.Type)
	}
	cop.succs = a.takeSuccs(len(op.Successors))
	for si := range op.Successors {
		s := &op.Successors[si]
		cs := &cop.succs[si]
		cs.succ, cs.blockIdx = s, -1
		cs.args = a.takeMetas(len(s.Args))
		for i, v := range s.Args {
			cs.args[i] = resolveUse(v, st)
		}
	}
	cop.regions = a.takeRegionPtrs(len(op.Regions))
	for i, sub := range op.Regions {
		cop.regions[i] = p.compileRegion(sub, st, w, a)
	}
}

// resolveUse resolves one value use to its slot, shadow chain included.
// ResolveShadowed returns nil for the (overwhelmingly common) case of
// an unshadowed id, so resolving a use allocates nothing.
func resolveUse(v ir.Value, st *scoped.SlotTable) operandMeta {
	m := operandMeta{id: v.ID, typ: v.Type, slot: -1, check: true}
	if ref, ok := st.Resolve(v.ID); ok {
		m.slot, m.depth = ref.Slot, ref.Depth
		m.alts = st.ResolveShadowed(v.ID, ref.Depth)
	}
	return m
}

// hoistChecks drops read-side type checks that can never fire: the use
// resolves to exactly one slot (no shadow chain), every writer of that
// slot declares one type, and the use's declared type equals it — then
// any value the runtime check would see already passed the write-side
// check against the same type. Block-argument binds for non-entry
// blocks are hoisted the same way when every branch feeding the block
// hands over a value validated at a TypeEqual type (the entry block
// also receives kernel-supplied region arguments, which nothing has
// validated, so its binds keep the check).
func hoistChecks(cr *compiledRegion, w *slotWriters) {
	if cr == nil {
		return
	}
	// argsChecked[i] stays true while every compiled branch to block i
	// passes args whose declared types match the block's arg types.
	argsChecked := make([]bool, len(cr.blocks))
	for i := range argsChecked {
		argsChecked[i] = true
	}
	for bi := range cr.blocks {
		cb := &cr.blocks[bi]
		for oi := range cb.ops {
			cop := &cb.ops[oi]
			for i := range cop.operands {
				hoistUse(&cop.operands[i], w)
			}
			for si := range cop.succs {
				cs := &cop.succs[si]
				for i := range cs.args {
					hoistUse(&cs.args[i], w)
				}
				if cs.blockIdx < 0 {
					continue
				}
				target := &cr.blocks[cs.blockIdx]
				if len(cs.args) != len(target.args) {
					argsChecked[cs.blockIdx] = false
					continue
				}
				for i := range cs.args {
					if !ir.TypeEqual(cs.args[i].typ, target.args[i].typ) {
						argsChecked[cs.blockIdx] = false
						break
					}
				}
			}
			for _, sub := range cop.regions {
				hoistChecks(sub, w)
			}
		}
	}
	// The entry block is reachable from region entry with arbitrary
	// kernel-supplied arguments; only branch-fed blocks may hoist.
	for bi := 1; bi < len(cr.blocks); bi++ {
		if !argsChecked[bi] {
			continue
		}
		for i := range cr.blocks[bi].args {
			cr.blocks[bi].args[i].check = false
		}
	}
}

func hoistUse(m *operandMeta, w *slotWriters) {
	if m.slot < 0 || len(m.alts) > 0 {
		return
	}
	if u := w.uniform(m.slot); u != nil && ir.TypeEqual(m.typ, u) {
		m.check = false
	}
}
