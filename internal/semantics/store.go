// Package semantics implements the incremental semantic store Ratte's
// generators consult while constructing programs (paper §3.1–§3.3).
//
// The store is a tuple of independently-updatable incremental states —
// exactly the shape of Definition 3.3, S(P') = f(S(P), e):
//
//   - the dialect-agnostic *type table* (Figure 6, left): which SSA
//     values are visible in the current scope and at which syntactic
//     types, kept as an ordered candidate index that operand queries
//     walk in place;
//   - the dialect-agnostic *fresh-ID source* (Figure 6, right);
//   - the *concrete interpretation*: the runtime value of every visible
//     SSA value, obtained by evaluating each appended operation with
//     the reference kernels the moment it is generated. Concrete values
//     subsume the paper's well-definedness analysis (§3.4) and concrete
//     container-shape tracking (§3.3): both are fields of the runtime
//     value.
//
// Apply is the only mutation on a generated prefix: it evaluates one
// extension operation and updates every sub-state, so the cost of
// keeping the semantics current is proportional to the extension, never
// to the whole prefix.
package semantics

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/scoped"
)

// Store carries the semantic state of a partially-generated program.
//
// Its type table is an ordered candidate index: the entries of every
// open scope, outermost scope first, each scope's run in candidate order
// (numeric IDs ascending, then non-numeric IDs lexically, so
// %2 < %10 < %arg0). PopScope truncates the index to the scope's start.
type Store struct {
	ctx    *interp.Context
	index  []entry
	scopes []scope     // open scopes, outermost first
	hits   []Candidate // reused by Candidates
	merged []entry     // reused by visible
	fresh  int
}

type scope struct {
	kind  scoped.ScopeType
	start int // offset of the scope's first entry in index
}

// entry is one indexed value. Its runtime value is read and its ID
// parsed once, at definition, so queries neither look up nor parse.
type entry struct {
	Candidate
	rank int // 0 for a numeric ID, 1 otherwise
	num  int
}

func compareEntries(a, b entry) int {
	return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.num, b.num), strings.Compare(a.Val.ID, b.Val.ID))
}

// NewStore builds a store whose concrete interpretation uses the given
// interpreter's kernels (normally the composed reference interpreter of
// the dialects being fuzzed).
func NewStore(in *interp.Interpreter) *Store {
	return &Store{ctx: interp.NewContext(in), scopes: []scope{{kind: scoped.Standard}}}
}

// Context exposes the underlying evaluation context (for output
// retrieval and function registration).
func (s *Store) Context() *interp.Context { return s.ctx }

// FreshID hands out the next free SSA identifier — the incremental
// next-ID semantics of Figure 6.
func (s *Store) FreshID() string {
	id := strconv.Itoa(s.fresh)
	s.fresh++
	return id
}

// FreshValue allocates a fresh value of the given type.
func (s *Store) FreshValue(t ir.Type) ir.Value { return ir.V(s.FreshID(), t) }

// PushScope/PopScope track region nesting during generation.
func (s *Store) PushScope(kind scoped.ScopeType) {
	s.ctx.PushScope(kind)
	s.scopes = append(s.scopes, scope{kind: kind, start: len(s.index)})
}

// PopScope leaves the innermost scope.
func (s *Store) PopScope() {
	s.ctx.PopScope()
	s.index = s.index[:s.scopes[len(s.scopes)-1].start]
	s.scopes = s.scopes[:len(s.scopes)-1]
}

// define indexes v in the innermost scope, inserting at its ordered
// position from the tail: fresh IDs ascend, so this is nearly always an
// append. SSA IDs are unique within a scope (the first undesirable
// behaviour of the paper's Figure 4).
func (s *Store) define(v ir.Value, rt rtval.Value) error {
	e := entry{Candidate: Candidate{Val: v, RT: rt}, rank: 1}
	if n, err := strconv.Atoi(v.ID); err == nil {
		e.rank, e.num = 0, n
	}
	start := s.scopes[len(s.scopes)-1].start
	i := len(s.index)
	for i > start && compareEntries(e, s.index[i-1]) < 0 {
		i--
	}
	if i > start && s.index[i-1].Val.ID == v.ID {
		return fmt.Errorf("semantics: redefinition of %q in the same scope", v.ID)
	}
	s.index = slices.Insert(s.index, i, e)
	return nil
}

// BindArg introduces a block argument with a concrete sample value
// (used when generating region bodies whose arguments are supplied by
// the enclosing operation at run time).
func (s *Store) BindArg(v ir.Value, sample rtval.Value) error {
	if err := s.ctx.Define(v, sample); err != nil {
		return err
	}
	return s.define(v, sample)
}

// AddFunc registers a helper function so that generated func.call
// operations can be evaluated during generation.
func (s *Store) AddFunc(f *ir.Operation) error { return s.ctx.AddFunc(f) }

// Apply evaluates one extension operation and folds its results into
// every sub-state. An error means the extension would introduce
// undefined behaviour or a trap — the generator must never produce one,
// so callers treat it as a generator defect.
func (s *Store) Apply(op *ir.Operation) error {
	if err := s.ctx.Eval(op); err != nil {
		return err
	}
	for _, r := range op.Results {
		rt, _ := s.ctx.Lookup(r.ID)
		if err := s.define(r, rt); err != nil {
			return err
		}
	}
	return nil
}

// Value returns the concrete runtime value of a visible SSA value.
func (s *Store) Value(id string) (rtval.Value, bool) { return s.ctx.Lookup(id) }

// Candidate is a visible SSA value paired with its concrete value.
type Candidate struct {
	Val ir.Value
	RT  rtval.Value
}

// Candidates returns every visible value satisfying pred, in candidate
// order, so generation is reproducible. A query costs O(visible values):
// it walks the index with no rebuild and allocates only its result. pred
// must not call back into the store.
func (s *Store) Candidates(pred func(v ir.Value, rt rtval.Value) bool) []Candidate {
	hits := s.hits[:0]
	for _, e := range s.visible() {
		if pred == nil || pred(e.Val, e.RT) {
			hits = append(hits, e.Candidate)
		}
	}
	s.hits = hits
	if len(hits) == 0 {
		return nil
	}
	return slices.Clone(hits)
}

// visible returns the entries visible from the innermost scope — those of
// the innermost IsolatedFromAbove scope and the scopes inside it — in
// candidate order. Fresh IDs ascend across scopes, so that is nearly
// always the index's tail as it stands. When an inner scope holds an ID
// that sorts before an enclosing one (numeric values under argN
// parameters) or shadows one, they are merged into a reused buffer: the
// scopes are gathered innermost first, so the stable sort and the
// compaction keep the innermost binding of a shadowed ID, as Lookup
// resolves it.
func (s *Store) visible() []entry {
	lo := len(s.scopes) - 1
	for lo > 0 && s.scopes[lo].kind != scoped.IsolatedFromAbove {
		lo--
	}
	vis := s.scopes[lo:]
	ordered := true
	for _, sc := range vis[1:] {
		if sc.start > vis[0].start && sc.start < len(s.index) {
			ordered = ordered && compareEntries(s.index[sc.start-1], s.index[sc.start]) < 0
		}
	}
	if ordered {
		return s.index[vis[0].start:]
	}
	all, end := s.merged[:0], len(s.index)
	for k := len(vis) - 1; k >= 0; k-- {
		all = append(all, s.index[vis[k].start:end]...)
		end = vis[k].start
	}
	slices.SortStableFunc(all, compareEntries)
	s.merged = slices.CompactFunc(all, func(a, b entry) bool { return a.Val.ID == b.Val.ID })
	return s.merged
}

// ScalarsOfType returns visible integer/index values of exactly type t.
func (s *Store) ScalarsOfType(t ir.Type) []Candidate {
	return s.Candidates(func(v ir.Value, rt rtval.Value) bool {
		return ir.TypeEqual(v.Type, t)
	})
}

// Tensors returns the visible tensor values.
func (s *Store) Tensors() []Candidate {
	return s.Candidates(func(v ir.Value, rt rtval.Value) bool {
		_, ok := rt.(*rtval.Tensor)
		return ok
	})
}

// Output returns everything printed by evaluated vector.print ops: the
// expected output of the generated program (the generation-time oracle).
func (s *Store) Output() string { return s.ctx.Output() }
