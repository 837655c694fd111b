// Package coverage is the semantic-coverage substrate of the fuzzing
// pipeline: a process-wide universe of named sites (rewrite patterns,
// legality branches, generator choices, executed op kinds) and a
// compact per-program Map of dense counter slots over that universe.
//
// The package mirrors internal/telemetry's two load-bearing
// properties:
//
//   - Nil safety. A nil *Map is a no-op: Hit, Add and Merge return
//     immediately, Summary returns nil. Instrumented code therefore
//     carries a single nil check per site and the disabled path costs
//     zero allocations (the interp/compiler alloc guards pin this).
//
//   - Observation only. Maps never feed back into the work they
//     measure: a campaign with coverage enabled produces the
//     byte-identical report of one with it disabled.
//
// Sites are registered once, process-wide, and resolve to stable
// dense slot indices for the life of the process. Slot indices are
// NOT stable across processes (registration order depends on which
// code paths run first), so anything that crosses a process boundary
// — journal lines, fleet snapshots — carries Summary()'s name-keyed
// form and is folded back with AddSummary.
//
// The package depends only on the standard library so every layer
// (gen, compiler, interp, difftest, fleet) can instrument itself
// without import cycles.
package coverage

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Site is a dense slot index into the process-wide site universe.
type Site int32

// universe is the process-wide site registry: an append-only name
// list (the slot order) plus a name index. Registration is rare and
// takes the lock; readers of names snapshot under it too (Summary is
// off the hot path).
var universe struct {
	mu    sync.Mutex
	names []string
	index map[string]Site
}

// Register resolves a site name to its slot, registering it on first
// use. Idempotent: the same name always returns the same Site.
func Register(name string) Site {
	universe.mu.Lock()
	defer universe.mu.Unlock()
	if universe.index == nil {
		universe.index = make(map[string]Site)
	}
	if s, ok := universe.index[name]; ok {
		return s
	}
	s := Site(len(universe.names))
	universe.names = append(universe.names, name)
	universe.index[name] = s
	return s
}

// SiteName returns the registered name of a slot ("" if out of range).
func SiteName(s Site) string {
	universe.mu.Lock()
	defer universe.mu.Unlock()
	if s < 0 || int(s) >= len(universe.names) {
		return ""
	}
	return universe.names[s]
}

// Keyed is a family of sites sharing one prefix and distinguished by a
// key — e.g. rewrite applications by op name, executed ops by kind.
// The full site name ("prefix/key") is built only on first
// registration; the hot path is one atomic pointer load plus one map
// lookup, allocation-free, so per-op instrumentation in the
// interpreter's dispatch loop stays cheap.
type Keyed struct {
	prefix string
	sites  atomic.Pointer[map[string]Site]
	mu     sync.Mutex
}

// NewKeyed builds a site family under prefix.
func NewKeyed(prefix string) *Keyed {
	return &Keyed{prefix: prefix}
}

// Site resolves a key to its family's slot, registering
// "prefix/key" in the universe on first use.
func (k *Keyed) Site(key string) Site {
	if m := k.sites.Load(); m != nil {
		if s, ok := (*m)[key]; ok {
			return s
		}
	}
	return k.register(key)
}

// register is the copy-on-write slow path of Site.
func (k *Keyed) register(key string) Site {
	k.mu.Lock()
	defer k.mu.Unlock()
	old := k.sites.Load()
	if old != nil {
		if s, ok := (*old)[key]; ok {
			return s
		}
	}
	s := Register(k.prefix + "/" + key)
	next := make(map[string]Site, 1)
	if old != nil {
		for kk, vv := range *old {
			next[kk] = vv
		}
	}
	next[key] = s
	k.sites.Store(&next)
	return s
}

// Map is a compact per-program coverage counter: one uint64 slot per
// universe site, grown lazily to the highest site hit. A nil *Map is
// a no-op everywhere. A Map is NOT safe for concurrent use — each
// seed's pipeline owns its own; unions happen behind locks one layer
// up (difftest.CampaignCoverage, the fleet coordinator).
type Map struct {
	counts []uint64
}

// NewMap builds an empty coverage map.
func NewMap() *Map { return &Map{} }

// Hit increments a site's counter.
func (m *Map) Hit(s Site) { m.Add(s, 1) }

// Add increments a site's counter by n.
func (m *Map) Add(s Site, n uint64) {
	if m == nil || s < 0 {
		return
	}
	if int(s) >= len(m.counts) {
		grown := make([]uint64, int(s)+1)
		copy(grown, m.counts)
		m.counts = grown
	}
	m.counts[s] += n
}

// Count returns a site's counter (0 for a nil Map or an unhit site).
func (m *Map) Count(s Site) uint64 {
	if m == nil || s < 0 || int(s) >= len(m.counts) {
		return 0
	}
	return m.counts[s]
}

// Sites reports how many distinct sites have a nonzero count.
func (m *Map) Sites() int {
	if m == nil {
		return 0
	}
	n := 0
	for _, c := range m.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// Total returns the sum of all counters.
func (m *Map) Total() uint64 {
	if m == nil {
		return 0
	}
	var t uint64
	for _, c := range m.counts {
		t += c
	}
	return t
}

// Merge folds other's counters into m (slot-wise; both maps index the
// same process-wide universe).
func (m *Map) Merge(other *Map) {
	if m == nil || other == nil {
		return
	}
	for s, c := range other.counts {
		if c != 0 {
			m.Add(Site(s), c)
		}
	}
}

// Summary returns the map's nonzero counters keyed by site name — the
// process-portable form that rides in journal lines and fleet
// snapshots. Returns nil for a nil or empty map, so the field
// json-omits cleanly.
func (m *Map) Summary() map[string]uint64 {
	if m == nil {
		return nil
	}
	var out map[string]uint64
	universe.mu.Lock()
	for s, c := range m.counts {
		if c == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]uint64)
		}
		out[universe.names[s]] = c
	}
	universe.mu.Unlock()
	return out
}

// AddSummary folds a name-keyed summary (from Summary, possibly from
// another process) back into m, registering any unknown site names.
func (m *Map) AddSummary(sum map[string]uint64) {
	if m == nil {
		return
	}
	for name, c := range sum {
		m.Add(Register(name), c)
	}
}

// Text renders the map as sorted "site count" lines — the
// -coverage-dump format. Deterministic for a fixed set of counts.
func (m *Map) Text() string {
	sum := m.Summary()
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		b = append(b, name...)
		b = append(b, ' ')
		b = appendUint(b, sum[name])
		b = append(b, '\n')
	}
	return string(b)
}

// appendUint appends the decimal form of v.
func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
