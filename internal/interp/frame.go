// Frames, pooling and compile accounting: the allocation side of the
// compiled engine. A Frame is the flat []rtval.Value a compiled
// function executes over — one slot per binding the function can ever
// create, indexed by the slots Compile assigned. Frames are recycled
// per function (they are all the same size for a given function), and
// whole Contexts are recycled per RunProgram, so a steady-state
// compiled run allocates almost nothing beyond what kernels allocate
// for values.
package interp

import (
	"sync"
	"sync/atomic"
	"time"

	"ratte/internal/ir"
	"ratte/internal/rtval"
)

// framePool recycles frames of one compiled function. Frames are
// returned cleared, so Get hands out an all-nil frame ("everything
// undefined") either way.
type framePool struct {
	pool sync.Pool
}

func (fp *framePool) init(numSlots int) {
	fp.pool.New = func() any {
		f := make([]rtval.Value, numSlots)
		return &f
	}
}

func (fp *framePool) get() *[]rtval.Value {
	return fp.pool.Get().(*[]rtval.Value)
}

func (fp *framePool) put(f *[]rtval.Value) {
	clear(*f)
	fp.pool.Put(f)
}

// ctxPool recycles whole evaluation contexts across RunProgram calls.
var ctxPool = sync.Pool{New: func() any { return new(Context) }}

// acquireContext readies a pooled context for one compiled run.
func acquireContext(in *Interpreter, p *CompiledProgram) *Context {
	ctx := ctxPool.Get().(*Context)
	ctx.in = in
	ctx.prog = p
	if ctx.buffers == nil {
		ctx.buffers = make(map[int64][]rtval.Int)
	}
	ctx.initLimits(in)
	return ctx
}

// releaseContext scrubs a context and returns it to the pool. The
// output bytes keep their capacity — that buffer regrowth is one of
// the tree walker's per-run costs the pool exists to shed.
func releaseContext(ctx *Context) {
	ctx.in = nil
	ctx.prog = nil
	ctx.fn = nil
	ctx.frame = nil
	ctx.cur = nil
	ctx.regionStack = ctx.regionStack[:0]
	ctx.isoFloor = 0
	ctx.out = ctx.out[:0]
	clear(ctx.buffers)
	ctx.nextBuffer = 0
	if ctx.spill != nil {
		clear(ctx.spill)
	}
	ctx.stepsLeft = 0
	ctx.maxCallDepth = 0
	ctx.callDepth = 0
	ctx.cancel = nil
	ctx.cancelCheckLeft = 0
	ctx.faults = nil
	// regs and argScratch keep their capacity (rtval.Int holds no
	// pointers, so stale entries retain nothing); fusedSteps resets per
	// acquisition. Yield scratch keeps its records but drops the values
	// they reference.
	ctx.fusedSteps = 0
	for _, ex := range ctx.yieldScratch {
		clear(ex.Values[:cap(ex.Values)])
	}
	ctxPool.Put(ctx)
}

// ProgramCache accounts the compiles made through it: each Get
// compiles the module afresh, counting one miss and the compile's wall
// time. It memoizes nothing. A campaign runs every freshly generated
// module once per build configuration, so a cross-program memo measured
// 0 hits on every benchmark workload while holding most of linalg's
// resident memory. The type keeps its cache
// name, and CacheStats its always-zero Hits, only because the benchmark
// reads dialects.ExecutorProgramCache().StatsDetail(); the rename waits
// for the next change to the benchmark. The zero value is ready to use
// and safe for concurrent use.
type ProgramCache struct {
	misses       atomic.Uint64
	compileNanos atomic.Int64
}

// Get compiles m over r and accounts the compile.
func (c *ProgramCache) Get(r *Registry, m *ir.Module) *CompiledProgram {
	start := time.Now()
	p := Compile(r, m)
	c.compileNanos.Add(int64(time.Since(start)))
	c.misses.Add(1)
	return p
}

// CacheStats is the accounting snapshot of a ProgramCache.
type CacheStats struct {
	// Hits is always 0: nothing is memoized.
	Hits uint64
	// Misses counts compiles.
	Misses uint64
	// CompileTime is the cumulative wall-clock spent inside Compile.
	CompileTime time.Duration
}

// StatsDetail returns the accounting counters. Safe for concurrent use.
func (c *ProgramCache) StatsDetail() CacheStats {
	return CacheStats{
		Misses:      c.misses.Load(),
		CompileTime: time.Duration(c.compileNanos.Load()),
	}
}
