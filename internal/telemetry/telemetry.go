// Package telemetry is the observability substrate of the fuzzing
// pipeline: a low-overhead, concurrency-safe metrics registry
// (counters, callback gauges, fixed-bucket latency histograms), the
// slowest-seeds list of a campaign report, and exporters for the
// Prometheus text format and JSON snapshots, served live over HTTP
// when a campaign runs with -metrics-addr.
//
// Two properties shape every type here:
//
//   - Nil safety. Every instrument is useful as a nil pointer: a nil
//     *Counter's Inc is a no-op, a nil *Registry hands out nil
//     instruments, a nil *SpanRecorder records nothing. Code under
//     instrumentation therefore carries no "is telemetry on?"
//     branching of its own, and the disabled path costs a nil check —
//     zero allocations, which internal/interp's alloc guard pins.
//
//   - Observation only. Instruments never feed back into the work they
//     measure: a campaign run with telemetry enabled produces the
//     byte-identical report of a run with it disabled, serial or
//     parallel (the difftest determinism guard asserts this). Hot-path
//     updates are single atomic operations; no instrument takes a lock
//     on the update path.
//
// The package depends only on the standard library, so every layer of
// the pipeline (gen, compiler, interp, difftest, faultinject) may
// instrument itself without import cycles.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// metricKind discriminates registry entries at export time.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGaugeFunc
	kindHistogram
)

// metric is one registered instrument: a name, optional constant
// labels (rendered as `k="v",...`), and exactly one live value source.
type metric struct {
	name   string
	labels string // pre-rendered, without braces; "" when unlabelled
	help   string
	kind   metricKind
	c      *Counter
	gf     func() int64
	h      *Histogram
}

// Registry holds named instruments and renders them for export. A nil
// *Registry hands out nil instruments, so "telemetry off" is spelled
// by simply not constructing one. Registration takes a lock; updates
// to the returned instruments never do.
//
// There is one process-wide Default registry (package-level collectors
// and the CLIs use it) and any number of private instances (each
// campaign gets its own, so concurrent campaigns don't mix counts).
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// defaultRegistry is the process-wide registry.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// lookup returns the metric registered under (name, labels), creating
// it with mk on first use. Re-registration returns the same entry, so
// instrument construction is idempotent.
func (r *Registry) lookup(name, labels, help string, mk func() *metric) *metric {
	key := name
	if labels != "" {
		key += "{" + labels + "}"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[key]; ok {
		return m
	}
	m := mk()
	m.name, m.labels, m.help = name, labels, help
	r.metrics = append(r.metrics, m)
	r.index[key] = m
	return m
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (a no-op counter).
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, "", help)
}

// CounterWith is Counter with pre-rendered constant labels
// (`k="v",...`), the primitive CounterVec builds on.
func (r *Registry) CounterWith(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, labels, help, func() *metric {
		return &metric{kind: kindCounter, c: &Counter{}}
	})
	return m.c
}

// GaugeFunc registers a gauge whose value is computed by fn at export
// time — the zero-hot-path-cost way to expose state a subsystem
// already tracks (cache sizes, journal bytes). fn must be safe to call
// from any goroutine. A nil registry ignores the registration.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.lookup(name, "", help, func() *metric {
		return &metric{kind: kindGaugeFunc, gf: fn}
	})
}

// Histogram returns the named latency histogram, creating it on first
// use. A nil registry returns nil.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramWith(name, "", help)
}

// HistogramWith is Histogram with pre-rendered constant labels.
func (r *Registry) HistogramWith(name, labels, help string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, labels, help, func() *metric {
		return &metric{kind: kindHistogram, h: &Histogram{}}
	})
	return m.h
}

// snapshot returns the registered metrics sorted by (name, labels) —
// the deterministic export order.
func (r *Registry) snapshot() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	return ms
}

// Counters returns every registered counter's current value keyed by
// its series name (`name` or `name{labels}`) — the process-portable
// form a fleet worker attaches to shard uploads so the coordinator
// can merge deltas by series. Gauge funcs and histograms are
// excluded: they describe the process that recorded them, not the
// campaign's work, and do not sum meaningfully across workers. A nil
// registry returns nil.
func (r *Registry) Counters() map[string]uint64 {
	if r == nil {
		return nil
	}
	out := make(map[string]uint64)
	for _, m := range r.snapshot() {
		if m.kind == kindCounter {
			out[series(m.name, m.labels, "")] = m.c.Value()
		}
	}
	return out
}

// CounterVec is a family of counters sharing one metric name and
// distinguished by a single label — e.g. generated operations by op
// name, verdicts by kind. The per-label counter is resolved through a
// lock-free cache after first use, so the hot path is one sync.Map
// load plus one atomic add. A nil CounterVec is a no-op.
type CounterVec struct {
	reg   *Registry
	name  string
	label string
	help  string
	cache sync.Map // label value -> *Counter
}

// CounterVec returns a labelled counter family. A nil registry returns
// nil (a no-op vec).
func (r *Registry) CounterVec(name, label, help string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{reg: r, name: name, label: label, help: help}
}

// With returns the counter for one label value, creating it on first
// use. Nil-safe.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	if c, ok := v.cache.Load(value); ok {
		return c.(*Counter)
	}
	c := v.reg.CounterWith(v.name, v.label+`="`+escapeLabel(value)+`"`, v.help)
	actual, _ := v.cache.LoadOrStore(value, c)
	return actual.(*Counter)
}

// Inc adds 1 to the counter for the given label value. Nil-safe.
func (v *CounterVec) Inc(value string) {
	v.With(value).Inc()
}

// Add adds n to the counter for the given label value. Nil-safe.
func (v *CounterVec) Add(value string, n uint64) {
	v.With(value).Add(n)
}

// escapeLabel escapes a label value per the Prometheus exposition
// rules (backslash, double-quote, newline).
func escapeLabel(s string) string {
	needs := false
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' || s[i] == '"' || s[i] == '\n' {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	out := make([]byte, 0, len(s)+4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
