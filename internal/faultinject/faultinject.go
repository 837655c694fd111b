// Package faultinject is Ratte's deterministic fault-injection layer:
// the chaos-engineering half of the campaign engine's robustness story.
// Production fuzzing campaigns must survive panicking kernels, runaway
// passes and transient infrastructure failures; this package lets the
// conformance harness *manufacture* those failures on demand — at named
// sites, with a seeded probability — so the containment machinery in
// internal/difftest is itself under test.
//
// An Injector is created from a Spec and consulted at fault points
// ("sites") sprinkled through the stack: pass execution and registry
// lookup in internal/compiler, kernel dispatch and call lookup in
// internal/interp. Each Point call draws a deterministic decision from
// (spec seed, site name, per-site occurrence number) — no global state,
// no wall clock — so a campaign seeded the same way injects exactly the
// same faults in the same places, run after run, serial or parallel.
//
// Three fault kinds model the failure classes the campaign must absorb:
//
//   - KindPanic: the site panics with a *Panic value (a crashing
//     kernel or pass);
//   - KindError: the site returns a *Error (a transient infrastructure
//     failure — the retry layer's food);
//   - KindDelay: the site sleeps Spec.Delay (a runaway computation —
//     the watchdog layer's food).
package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Kind classifies one injected fault.
type Kind int

// The fault kinds.
const (
	KindError Kind = iota // Point returns a *Error
	KindPanic             // Point panics with a *Panic
	KindDelay             // Point sleeps Spec.Delay, then reports no fault
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// The fault sites wired into the stack. Site names are hierarchical
// ("layer/point"); Spec.Sites filters by prefix, so "compiler" selects
// both compiler sites and "compiler/pass" only pass execution.
const (
	// SiteCompilerPass fires before each pass executes (compiler.runPass).
	SiteCompilerPass = "compiler/pass"
	// SiteCompilerRegistry fires at pass-registry lookup during
	// shared-prefix compilation (compiler.CompileConfigs).
	SiteCompilerRegistry = "compiler/registry"
	// SiteInterpDispatch fires before each operation dispatch in the
	// interpreter.
	SiteInterpDispatch = "interp/dispatch"
	// SiteInterpRegistry fires at kernel-registry and function-table
	// lookups in the interpreter.
	SiteInterpRegistry = "interp/registry"
)

// DefaultDelay is the sleep a KindDelay fault injects when Spec.Delay
// is zero — long enough to trip a tight per-program watchdog, short
// enough to keep fault-tolerance tests fast.
const DefaultDelay = 2 * time.Millisecond

// Spec configures an Injector. The zero Spec injects nothing.
type Spec struct {
	// Seed keys every decision; the same Spec injects the same faults.
	Seed int64
	// Rate is the per-Point fault probability in [0, 1].
	Rate float64
	// Kinds restricts the injected fault kinds (empty = all three).
	Kinds []Kind
	// Sites restricts injection to sites with one of these prefixes
	// (empty = every site).
	Sites []string
	// Delay is the sleep for KindDelay faults (0 = DefaultDelay).
	Delay time.Duration
	// MaxFaults bounds the total faults one Injector fires (0 =
	// unbounded). Targeted tests use it to fault exactly one attempt
	// and let the retry succeed.
	MaxFaults int
}

// ForSeed derives the Spec for one campaign program: the same campaign
// spec and program seed always yield the same per-program injector,
// which is what makes fault-injected campaigns deterministic per seed
// regardless of worker count or retry scheduling.
func (s Spec) ForSeed(programSeed int64) Spec {
	d := s
	d.Seed = int64(mix(uint64(s.Seed), uint64(programSeed)^0x9e3779b97f4a7c15))
	return d
}

// Panic is the value injected panics carry; the campaign's stage guards
// recognise it to classify the failure as injected (hence transient).
type Panic struct {
	Site string
	N    int64 // the site's occurrence number that fired
}

func (p *Panic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s#%d", p.Site, p.N)
}

// Error is the error injected KindError faults return.
type Error struct {
	Site string
	N    int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s#%d", e.Site, e.N)
}

// IsInjected reports whether err stems from an injected fault (at any
// wrapping depth). The campaign's retry layer treats injected failures
// as transient.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// IsInjectedPanic reports whether a recovered panic value is an
// injected fault.
func IsInjectedPanic(v any) bool {
	_, ok := v.(*Panic)
	return ok
}

// Injector draws deterministic fault decisions at named sites. An
// Injector is NOT safe for concurrent use: the campaign engine creates
// one per program attempt and threads it through that attempt's
// single-goroutine pipeline.
type Injector struct {
	spec     Spec
	delay    time.Duration
	counts   map[string]int64
	hits     int
	fired    []Fault
	observer func(Fault)
}

// Fault records one fault that fired.
type Fault struct {
	Site string
	N    int64
	Kind Kind
}

// New builds an injector for the spec. A nil *Injector is valid and
// injects nothing, so call sites need no enablement flag.
func New(spec Spec) *Injector {
	d := spec.Delay
	if d == 0 {
		d = DefaultDelay
	}
	return &Injector{spec: spec, delay: d, counts: make(map[string]int64)}
}

// Hits returns how many faults have fired so far (delays included).
func (in *Injector) Hits() int {
	if in == nil {
		return 0
	}
	return in.hits
}

// Fired returns the faults that fired, in order.
func (in *Injector) Fired() []Fault {
	if in == nil {
		return nil
	}
	return in.fired
}

// SetObserver installs a callback invoked as each fault fires (before
// the fault is applied, so it runs even for panics). Observation must
// not influence the work under test — the campaign's telemetry layer
// uses it to count faults by site and kind. A nil receiver is a no-op;
// fn may be nil to clear.
func (in *Injector) SetObserver(fn func(Fault)) {
	if in != nil {
		in.observer = fn
	}
}

// Point is a fault point: it decides deterministically whether this
// occurrence of site faults, and if so applies the fault — panicking
// for KindPanic, sleeping for KindDelay (then returning nil), or
// returning a *Error for KindError. A nil receiver or a non-firing
// decision returns nil.
func (in *Injector) Point(site string) error {
	if in == nil || in.spec.Rate <= 0 {
		return nil
	}
	n := in.counts[site]
	in.counts[site] = n + 1
	if in.spec.MaxFaults > 0 && in.hits >= in.spec.MaxFaults {
		return nil
	}
	if !in.siteEnabled(site) {
		return nil
	}
	h := mix(mix(uint64(in.spec.Seed), hashString(site)), uint64(n))
	if float64(h>>11)/(1<<53) >= in.spec.Rate {
		return nil
	}
	kind := in.pickKind(h)
	in.hits++
	in.fired = append(in.fired, Fault{Site: site, N: n, Kind: kind})
	if in.observer != nil {
		in.observer(Fault{Site: site, N: n, Kind: kind})
	}
	switch kind {
	case KindPanic:
		panic(&Panic{Site: site, N: n})
	case KindDelay:
		time.Sleep(in.delay)
		return nil
	default:
		return &Error{Site: site, N: n}
	}
}

func (in *Injector) siteEnabled(site string) bool {
	if len(in.spec.Sites) == 0 {
		return true
	}
	for _, p := range in.spec.Sites {
		if strings.HasPrefix(site, p) {
			return true
		}
	}
	return false
}

// pickKind selects the fault kind from independent bits of the draw.
func (in *Injector) pickKind(h uint64) Kind {
	kinds := in.spec.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindError, KindPanic, KindDelay}
	}
	return kinds[(h>>53)%uint64(len(kinds))]
}

// mix is splitmix64's finalizer over a seeded combination — cheap,
// well-distributed, and stable across platforms.
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15 + b
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashString is FNV-1a, inlined to keep Point allocation-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
