// Package interp is Ratte's composable interpreter framework: the Go
// analogue of the paper's effects-based embedding (§3.2).
//
// Each dialect contributes a set of semantic kernels — one per operation
// — registered into an Interpreter. This solves the same expression
// problem the paper solves with algebraic effects: a new dialect's
// semantics are added without touching any existing dialect, and an
// interpreter for a dialect combination is obtained by composing the
// dialects' kernel sets (the paper's handler composition).
//
// The Context passed to kernels is the "interpreter effects" layer of
// the paper's Figure 9: it provides assignment (Define/Get over a scoped
// environment), the function table (AddFunc/CallFunc), the writer
// (Print), error signalling (Go errors carrying UB/trap classification)
// and region execution. Regions are embedded as calls — a kernel
// receives its attached regions and executes them through
// Context.RunRegion with argument values, mirroring the paper's
// embedding of regions as functions from values to effect-ASTs
// (Table 1).
package interp

import (
	"context"
	"errors"
	"fmt"

	"ratte/internal/coverage"
	"ratte/internal/faultinject"
	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/scoped"
)

// covInterpOp is the interpreter's coverage site family: one site per
// executed op kind (see docs/EXTENDING.md §9).
var covInterpOp = coverage.NewKeyed("interp/op")

// Kernel evaluates one non-terminator operation: reading operands from
// the context, computing, and defining result bindings.
type Kernel func(ctx *Context, op *ir.Operation) error

// TermResult is the outcome of a terminator kernel: either an Exit
// (leave the enclosing region) or a Branch (transfer to another block of
// the same region).
type TermResult struct {
	Exit   *Exit
	Branch *ir.Successor
}

// TerminatorKernel evaluates a block terminator.
type TerminatorKernel func(ctx *Context, op *ir.Operation) (TermResult, error)

// ExitKind classifies how control left a region.
type ExitKind int

const (
	// ExitYield terminates a region, producing the region's results
	// (scf.yield, linalg.yield, tensor.yield).
	ExitYield ExitKind = iota
	// ExitReturn terminates the enclosing function (func.return,
	// llvm.return).
	ExitReturn
)

// Exit carries region-leaving control flow and its values.
type Exit struct {
	Kind   ExitKind
	Values []rtval.Value
}

// Dialect is a bundle of kernels giving semantics to one dialect's
// operations. Dialects compose: an Interpreter is built from any set of
// dialects, and op names must not collide.
type Dialect struct {
	Name        string
	Kernels     map[string]Kernel
	Terminators map[string]TerminatorKernel
}

// NewDialect creates an empty dialect semantics bundle.
func NewDialect(name string) *Dialect {
	return &Dialect{
		Name:        name,
		Kernels:     make(map[string]Kernel),
		Terminators: make(map[string]TerminatorKernel),
	}
}

// Register adds a kernel for the fully-qualified op name.
func (d *Dialect) Register(op string, k Kernel) { d.Kernels[op] = k }

// RegisterTerminator adds a terminator kernel.
func (d *Dialect) RegisterTerminator(op string, k TerminatorKernel) { d.Terminators[op] = k }

// Registry is the composed, immutable kernel table of a dialect
// combination — the expensive part of building an interpreter. A
// Registry is built once (composing the dialects' kernel sets, the
// paper's handler composition) and may then be shared freely: it is
// never mutated after construction, so any number of goroutines can
// instantiate Interpreters over it concurrently at the cost of one
// small allocation each.
type Registry struct {
	kernels     map[string]Kernel
	terminators map[string]TerminatorKernel
}

// NewRegistry composes the kernel tables of the given dialects.
// Composing two dialects that define the same operation is a
// programming error and panics, as the composition would be ambiguous.
func NewRegistry(dialects ...*Dialect) *Registry {
	r := &Registry{
		kernels:     make(map[string]Kernel),
		terminators: make(map[string]TerminatorKernel),
	}
	for _, d := range dialects {
		for name, k := range d.Kernels {
			if _, dup := r.kernels[name]; dup {
				panic(fmt.Sprintf("interp: duplicate kernel for %s", name))
			}
			r.kernels[name] = k
		}
		for name, k := range d.Terminators {
			if _, dup := r.terminators[name]; dup {
				panic(fmt.Sprintf("interp: duplicate terminator for %s", name))
			}
			r.terminators[name] = k
		}
	}
	return r
}

// Supports reports whether the registry has semantics for op name.
func (r *Registry) Supports(name string) bool {
	_, k := r.kernels[name]
	_, t := r.terminators[name]
	return k || t
}

// SupportedOps returns the number of operations with registered
// semantics.
func (r *Registry) SupportedOps() int {
	return len(r.kernels) + len(r.terminators)
}

// NewInterpreter instantiates an interpreter over the shared registry.
// The instance is cheap (per-instance limits only; the kernel tables
// are shared), so callers may create one per evaluation — or per
// worker goroutine — without rebuilding any composition.
func (r *Registry) NewInterpreter() *Interpreter {
	return &Interpreter{registry: r}
}

// Interpreter evaluates modules using the composed kernels of its
// dialects. The kernel tables live in a shared immutable Registry;
// the Interpreter itself only carries per-instance evaluation limits,
// so instances are cheap to create. An Interpreter (via its Contexts)
// must not be used from multiple goroutines at once, but distinct
// Interpreters over the same Registry may run concurrently.
type Interpreter struct {
	registry *Registry

	// MaxSteps bounds the number of operations evaluated in one Run,
	// guarding against non-termination in lowered loop code. Zero means
	// the default (10 million).
	MaxSteps int

	// MaxCallDepth bounds function-call recursion. Zero means the
	// default (256).
	MaxCallDepth int

	// Ctx, when non-nil, is checked cooperatively during evaluation
	// (every cancelCheckInterval steps and at every function call);
	// when it is cancelled or its deadline passes, the run stops with
	// an error wrapping Ctx.Err(). This is the watchdog hook the
	// campaign engine uses to bound each program's wall-clock cost.
	Ctx context.Context

	// Faults, when non-nil, is the deterministic fault-injection layer
	// (sites interp/dispatch and interp/registry). Production runs
	// leave it nil and pay one nil check per dispatched operation.
	Faults *faultinject.Injector

	// Metrics, when non-nil, receives per-run execution counters
	// (runs, steps). Reporting happens once per Run —
	// never per operation — so it is off the dispatch hot path; nil
	// costs one check per Run.
	Metrics *Metrics

	// Coverage, when non-nil, receives one semantic-coverage hit per
	// executed operation, keyed by op name (interp/op/<name>).
	// Observation-only; nil costs one check per dispatched op.
	Coverage *coverage.Map
}

// cancelCheckInterval is how many evaluated operations pass between
// two looks at Ctx.Err(): frequent enough that a per-program deadline
// lands within microseconds, rare enough to stay off the profile.
const cancelCheckInterval = 1024

// New composes an interpreter from dialect semantics, building a fresh
// Registry. Callers instantiating interpreters repeatedly over the same
// dialect combination should build one Registry and use NewInterpreter.
func New(dialects ...*Dialect) *Interpreter {
	return NewRegistry(dialects...).NewInterpreter()
}

// Supports reports whether the interpreter has semantics for op name.
func (in *Interpreter) Supports(name string) bool {
	return in.registry.Supports(name)
}

// SupportedOps returns the number of operations with registered
// semantics.
func (in *Interpreter) SupportedOps() int {
	return in.registry.SupportedOps()
}

// Result is the outcome of interpreting a module.
type Result struct {
	// Output is everything printed (one line per vector.print).
	Output string
	// Returned holds the entry function's return values.
	Returned []rtval.Value
}

// EvalError wraps an error raised during evaluation with the operation
// that raised it. Use errors.As with *rtval.UBError or *rtval.TrapError
// to classify.
type EvalError struct {
	OpName string
	Err    error
}

func (e *EvalError) Error() string { return e.OpName + ": " + e.Err.Error() }
func (e *EvalError) Unwrap() error { return e.Err }

// IsUB reports whether err stems from undefined behaviour.
func IsUB(err error) bool {
	var ub *rtval.UBError
	return errors.As(err, &ub)
}

// IsTrap reports whether err stems from a deterministic runtime trap.
func IsTrap(err error) bool {
	var tr *rtval.TrapError
	return errors.As(err, &tr)
}

// Run interprets the module, calling the entry function (no arguments).
// All top-level functions are added to the function table first (the
// paper's AddFunc effect); the entry function's region is then executed
// in an isolated scope. Run tree-walks the module over the registry's
// kernels, the one implementation of each dialect's semantics.
func (in *Interpreter) Run(m *ir.Module, entry string) (*Result, error) {
	return in.RunArgs(m, entry, nil)
}

// RunArgs is Run with entry-function arguments.
func (in *Interpreter) RunArgs(m *ir.Module, entry string, args []rtval.Value) (*Result, error) {
	ctx := NewContext(in)
	for _, op := range m.Body().Ops {
		switch op.Name {
		case "func.func", "llvm.func":
			if err := ctx.AddFunc(op); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("interp: unsupported top-level operation %s", op.Name)
		}
	}
	stepsBefore := ctx.stepsLeft
	vals, err := ctx.CallFunc(entry, args)
	if err != nil {
		return nil, err
	}
	in.Metrics.noteRun(stepsBefore - ctx.stepsLeft)
	return &Result{Output: ctx.Output(), Returned: vals}, nil
}

// Context is the interpreter-effects layer threaded through kernels:
// scoped assignment, the function table, the output writer, buffer
// memory (for lowered code), and execution services for regions and
// calls.
type Context struct {
	in    *Interpreter
	env   *scoped.Table[rtval.Value]
	funcs map[string]*ir.Operation
	out   []byte

	// Buffers backs memref values in lowered programs.
	buffers    map[int64][]rtval.Int
	nextBuffer int64

	// Evaluation limits, resolved from the Interpreter once at context
	// construction so the hot loop pays a single counter compare.
	stepsLeft    int
	maxCallDepth int
	callDepth    int

	// Watchdog, fault-injection and coverage state, resolved from the
	// Interpreter at context construction.
	cancel          context.Context
	cancelCheckLeft int
	faults          *faultinject.Injector
	cover           *coverage.Map

	// Per-depth reusable ExitYield records (YieldExit) and the
	// branch-argument scratch — both exist to keep region loops
	// allocation-free.
	yieldScratch []*Exit
	branchArgs   []rtval.Value
}

// NewContext builds a fresh evaluation context for the interpreter.
func NewContext(in *Interpreter) *Context {
	ctx := &Context{
		in:      in,
		env:     scoped.New[rtval.Value](),
		funcs:   make(map[string]*ir.Operation),
		buffers: make(map[int64][]rtval.Int),
	}
	ctx.initLimits(in)
	return ctx
}

// initLimits resolves the interpreter's evaluation limits (applying the
// zero-means-default rule) once, so step() and CallFunc check plain
// counters instead of re-deriving the defaults per operation.
func (ctx *Context) initLimits(in *Interpreter) {
	ctx.stepsLeft = in.MaxSteps
	if ctx.stepsLeft == 0 {
		ctx.stepsLeft = 10_000_000
	}
	ctx.maxCallDepth = in.MaxCallDepth
	if ctx.maxCallDepth == 0 {
		ctx.maxCallDepth = 256
	}
	ctx.cancel = in.Ctx
	ctx.cancelCheckLeft = 1 // check on the first step: expired budgets fail fast
	ctx.faults = in.Faults
	ctx.cover = in.Coverage
}

// coverOp records one executed-op coverage hit when coverage is on,
// after the step charge, at the start of the op's dispatch.
func (ctx *Context) coverOp(name string) {
	if ctx.cover != nil {
		ctx.cover.Hit(covInterpOp.Site(name))
	}
}

// checkCancel is the cooperative cancellation look: cheap countdown,
// occasional Ctx.Err(). Callers gate on ctx.cancel != nil.
func (ctx *Context) checkCancel() error {
	ctx.cancelCheckLeft--
	if ctx.cancelCheckLeft > 0 {
		return nil
	}
	ctx.cancelCheckLeft = cancelCheckInterval
	if err := ctx.cancel.Err(); err != nil {
		return fmt.Errorf("interp: cancelled: %w", err)
	}
	return nil
}

// Output returns everything printed so far.
func (ctx *Context) Output() string { return string(ctx.out) }

// Print writes one line of oracle-visible output (the writer effect).
// Printing a value that is not well-defined is undefined behaviour: the
// observable output would be non-deterministic.
func (ctx *Context) Print(v rtval.Value) error {
	if !v.Defined() {
		return &rtval.UBError{Op: "vector.print", Reason: "printing a value that is not well-defined"}
	}
	ctx.out = append(ctx.out, v.String()...)
	ctx.out = append(ctx.out, '\n')
	return nil
}

// PrintRaw writes a line without the definedness check; the llvm
// executor uses it to model printing whatever bits the hardware holds.
func (ctx *Context) PrintRaw(s string) {
	ctx.out = append(ctx.out, s...)
	ctx.out = append(ctx.out, '\n')
}

// Get resolves an operand to its runtime value (the assignment effect's
// read side). The binding must exist and its runtime type must agree
// with the operand's claimed type (dynamic dims in the claimed type
// match any concrete extent).
func (ctx *Context) Get(v ir.Value) (rtval.Value, error) {
	val, ok := ctx.env.Lookup(v.ID)
	if !ok {
		return nil, fmt.Errorf("interp: use of undefined value %%%s", v.ID)
	}
	if !typeCompatible(v.Type, val.Type()) {
		return nil, fmt.Errorf("interp: value %%%s has runtime type %s but is used at type %s",
			v.ID, val.Type(), v.Type)
	}
	return val, nil
}

// GetInt resolves an operand that must be a scalar integer or index.
func (ctx *Context) GetInt(v ir.Value) (rtval.Int, error) {
	val, err := ctx.Get(v)
	if err != nil {
		return rtval.Int{}, err
	}
	i, ok := val.(rtval.Int)
	if !ok {
		return rtval.Int{}, fmt.Errorf("interp: value %%%s is not a scalar integer", v.ID)
	}
	return i, nil
}

// GetTensor resolves an operand that must be a tensor.
func (ctx *Context) GetTensor(v ir.Value) (*rtval.Tensor, error) {
	val, err := ctx.Get(v)
	if err != nil {
		return nil, err
	}
	t, ok := val.(*rtval.Tensor)
	if !ok {
		return nil, fmt.Errorf("interp: value %%%s is not a tensor", v.ID)
	}
	return t, nil
}

// GetMemRef resolves an operand that must be a memref.
func (ctx *Context) GetMemRef(v ir.Value) (rtval.MemRef, error) {
	val, err := ctx.Get(v)
	if err != nil {
		return rtval.MemRef{}, err
	}
	m, ok := val.(rtval.MemRef)
	if !ok {
		return rtval.MemRef{}, fmt.Errorf("interp: value %%%s is not a memref", v.ID)
	}
	return m, nil
}

// Define binds a result value (the assignment effect's write side).
// Rebinding an existing identifier in the same scope is permitted:
// static SSA uniqueness is the verifier's job, and lowered loop code
// legitimately re-executes defining operations on back edges.
func (ctx *Context) Define(v ir.Value, val rtval.Value) error {
	if !typeCompatible(v.Type, val.Type()) {
		return fmt.Errorf("interp: defining %%%s: runtime type %s does not satisfy declared type %s",
			v.ID, val.Type(), v.Type)
	}
	ctx.env.Bind(v.ID, val)
	return nil
}

// AddFunc registers a function in the function table (paper Fig. 8).
func (ctx *Context) AddFunc(f *ir.Operation) error {
	name := ir.FuncSymbol(f)
	if name == "" {
		return fmt.Errorf("interp: function without sym_name")
	}
	if _, dup := ctx.funcs[name]; dup {
		return fmt.Errorf("interp: duplicate function @%s", name)
	}
	ctx.funcs[name] = f
	return nil
}

// Func looks up a registered function.
func (ctx *Context) Func(name string) (*ir.Operation, bool) {
	f, ok := ctx.funcs[name]
	return f, ok
}

// CallFunc invokes a registered function with arguments (paper Fig. 8's
// CallFunc effect): the function body runs in an IsolatedFromAbove
// scope and must leave via ExitReturn.
func (ctx *Context) CallFunc(name string, args []rtval.Value) ([]rtval.Value, error) {
	if ctx.faults != nil {
		if err := ctx.faults.Point(faultinject.SiteInterpRegistry); err != nil {
			return nil, err
		}
	}
	f, ok := ctx.funcs[name]
	if !ok {
		return nil, fmt.Errorf("interp: call to unknown function @%s", name)
	}
	ft, err := ir.FuncType(f)
	if err != nil {
		return nil, err
	}
	if len(args) != len(ft.Inputs) {
		return nil, fmt.Errorf("interp: call @%s with %d args, want %d", name, len(args), len(ft.Inputs))
	}
	if ctx.callDepth >= ctx.maxCallDepth {
		return nil, &rtval.TrapError{Op: "func.call", Reason: "call depth exceeded (runaway recursion)"}
	}
	ctx.callDepth++
	defer func() { ctx.callDepth-- }()

	exit, err := ctx.RunRegion(f.Regions[0], args, scoped.IsolatedFromAbove)
	if err != nil {
		return nil, err
	}
	if exit == nil || exit.Kind != ExitReturn {
		return nil, fmt.Errorf("interp: function @%s did not return", name)
	}
	if len(exit.Values) != len(ft.Results) {
		return nil, fmt.Errorf("interp: function @%s returned %d values, want %d", name, len(exit.Values), len(ft.Results))
	}
	return exit.Values, nil
}

// RunRegion executes a region: the entry block receives args as its
// block arguments; blocks execute until a terminator exits the region
// or branches to a sibling block. The region body runs in a fresh scope
// of the given kind (Standard regions see enclosing bindings;
// IsolatedFromAbove regions do not).
func (ctx *Context) RunRegion(r *ir.Region, args []rtval.Value, kind scoped.ScopeType) (*Exit, error) {
	block := r.Entry()
	if block == nil {
		return nil, fmt.Errorf("interp: region has no blocks")
	}
	ctx.env.Push(kind)
	defer ctx.env.Pop()

	for {
		if len(block.Args) != len(args) {
			return nil, fmt.Errorf("interp: block ^%s expects %d arguments, got %d", block.Label, len(block.Args), len(args))
		}
		// Bind block arguments into the region scope; branching back to
		// a block simply re-binds them.
		for i, a := range block.Args {
			if err := ctx.Define(a, args[i]); err != nil {
				return nil, err
			}
		}
		exit, next, nextArgs, err := ctx.runBlockOps(block)
		if err != nil {
			return nil, err
		}
		if exit != nil {
			return exit, nil
		}
		nb := r.Block(next)
		if nb == nil {
			return nil, fmt.Errorf("interp: branch to unknown block ^%s", next)
		}
		block, args = nb, nextArgs
	}
}

// YieldExit returns a reusable ExitYield record sized for n values,
// scoped to the current region depth. Yield kernels use it to avoid
// allocating an Exit (and its values slice) per region execution — the
// dominant per-iteration cost of structured loops. Reuse is sound
// because a yield's Exit is consumed by the region-running kernel
// before that kernel re-runs any region at the same depth, and regions
// at different depths get distinct records.
func (ctx *Context) YieldExit(n int) *Exit {
	d := ctx.env.Depth()
	for len(ctx.yieldScratch) <= d {
		ctx.yieldScratch = append(ctx.yieldScratch, new(Exit))
	}
	ex := ctx.yieldScratch[d]
	ex.Kind = ExitYield
	if cap(ex.Values) < n {
		ex.Values = make([]rtval.Value, n)
	}
	ex.Values = ex.Values[:n]
	return ex
}

func (ctx *Context) runBlockOps(block *ir.Block) (exit *Exit, next string, nextArgs []rtval.Value, err error) {
	for _, op := range block.Ops {
		if err := ctx.step(); err != nil {
			return nil, "", nil, err
		}
		ctx.coverOp(op.Name)
		if ctx.faults != nil {
			if err := ctx.faults.Point(faultinject.SiteInterpDispatch); err != nil {
				return nil, "", nil, &EvalError{OpName: op.Name, Err: err}
			}
		}
		if tk, ok := ctx.in.registry.terminators[op.Name]; ok {
			res, err := tk(ctx, op)
			if err != nil {
				return nil, "", nil, &EvalError{OpName: op.Name, Err: err}
			}
			switch {
			case res.Exit != nil:
				return res.Exit, "", nil, nil
			case res.Branch != nil:
				// The scratch is safe to reuse across branches: RunRegion
				// defines the values into the target block's bindings
				// before any op can branch again.
				if cap(ctx.branchArgs) < len(res.Branch.Args) {
					ctx.branchArgs = make([]rtval.Value, len(res.Branch.Args))
				}
				args := ctx.branchArgs[:len(res.Branch.Args)]
				for i, a := range res.Branch.Args {
					v, err := ctx.Get(a)
					if err != nil {
						return nil, "", nil, &EvalError{OpName: op.Name, Err: err}
					}
					args[i] = v
				}
				return nil, res.Branch.Block, args, nil
			default:
				return nil, "", nil, fmt.Errorf("interp: terminator %s produced no control flow", op.Name)
			}
		}
		k, ok := ctx.in.registry.kernels[op.Name]
		if !ok {
			return nil, "", nil, fmt.Errorf("interp: no semantics registered for %s", op.Name)
		}
		if err := k(ctx, op); err != nil {
			return nil, "", nil, &EvalError{OpName: op.Name, Err: err}
		}
	}
	return nil, "", nil, fmt.Errorf("interp: block ^%s ended without a terminator", block.Label)
}

func (ctx *Context) step() error {
	if ctx.stepsLeft <= 0 {
		return &rtval.TrapError{Op: "interp", Reason: "step limit exceeded (non-terminating program?)"}
	}
	ctx.stepsLeft--
	if ctx.cancel != nil {
		return ctx.checkCancel()
	}
	return nil
}

// Eval evaluates a single non-terminator operation against the current
// environment. This is the incremental-semantics entry point (paper
// Definition 3.3): Ratte's generator calls Eval once per appended
// extension, keeping the concrete state of the partial program current.
func (ctx *Context) Eval(op *ir.Operation) error {
	if err := ctx.step(); err != nil {
		return err
	}
	ctx.coverOp(op.Name)
	k, ok := ctx.in.registry.kernels[op.Name]
	if !ok {
		return fmt.Errorf("interp: no semantics registered for %s", op.Name)
	}
	if err := k(ctx, op); err != nil {
		return &EvalError{OpName: op.Name, Err: err}
	}
	return nil
}

// PushScope opens a new environment scope; generators use this to track
// region-local values while constructing region bodies.
func (ctx *Context) PushScope(kind scoped.ScopeType) { ctx.env.Push(kind) }

// PopScope closes the innermost environment scope.
func (ctx *Context) PopScope() { ctx.env.Pop() }

// Lookup resolves a value ID to its runtime value through the visible
// scopes.
func (ctx *Context) Lookup(id string) (rtval.Value, bool) {
	return ctx.env.Lookup(id)
}

// AllocBuffer allocates backing storage for a memref of the given shape
// and element type, with every cell initialised to undef.
func (ctx *Context) AllocBuffer(shape []int64, elem ir.Type) rtval.MemRef {
	m := rtval.MemRef{Handle: ctx.nextBuffer, Shape: append([]int64(nil), shape...), Elem: elem}
	ctx.nextBuffer++
	buf := make([]rtval.Int, m.NumElements())
	for i := range buf {
		buf[i] = rtval.UndefInt(elem)
	}
	ctx.buffers[m.Handle] = buf
	return m
}

// Buffer returns the backing storage of a memref.
func (ctx *Context) Buffer(m rtval.MemRef) ([]rtval.Int, error) {
	buf, ok := ctx.buffers[m.Handle]
	if !ok {
		return nil, &rtval.TrapError{Op: "memref", Reason: "use of deallocated or unknown buffer"}
	}
	return buf, nil
}

// FreeBuffer releases a buffer (memref.dealloc).
func (ctx *Context) FreeBuffer(m rtval.MemRef) {
	delete(ctx.buffers, m.Handle)
}

// typeCompatible reports whether a runtime type satisfies a declared
// (possibly dynamically-shaped) type.
func typeCompatible(declared, runtime ir.Type) bool {
	if ir.TypeEqual(declared, runtime) {
		return true
	}
	dt, ok1 := declared.(ir.TensorType)
	rt, ok2 := runtime.(ir.TensorType)
	if ok1 && ok2 {
		return shapeCompatible(dt.Shape, rt.Shape) && ir.TypeEqual(dt.Elem, rt.Elem)
	}
	dm, ok1 := declared.(ir.MemRefType)
	rm, ok2 := runtime.(ir.MemRefType)
	if ok1 && ok2 {
		return shapeCompatible(dm.Shape, rm.Shape) && ir.TypeEqual(dm.Elem, rm.Elem)
	}
	return false
}

func shapeCompatible(declared, runtime []int64) bool {
	if len(declared) != len(runtime) {
		return false
	}
	for i := range declared {
		if declared[i] != ir.DynamicSize && declared[i] != runtime[i] {
			return false
		}
	}
	return true
}
