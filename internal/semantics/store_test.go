package semantics_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"ratte/internal/dialects"
	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/scoped"
	"ratte/internal/semantics"
)

func newStore() *semantics.Store {
	return semantics.NewStore(dialects.NewReferenceInterpreter())
}

func constOp(id string, v int64, t ir.Type) *ir.Operation {
	op := ir.NewOp("arith.constant")
	op.Attrs.Set("value", ir.IntAttr(v, t))
	op.Results = []ir.Value{ir.V(id, t)}
	return op
}

func binOp(name, id string, t ir.Type, a, b ir.Value) *ir.Operation {
	op := ir.NewOp(name)
	op.Operands = []ir.Value{a, b}
	op.Results = []ir.Value{ir.V(id, t)}
	return op
}

// TestFigure6IncrementalSemantics replays the paper's Figure 6: the two
// dialect-agnostic incremental semantics — the value-type table and the
// next-fresh-ID tracker — evolve step by step as extensions are applied.
func TestFigure6IncrementalSemantics(t *testing.T) {
	s := newStore()
	s.PushScope(scoped.IsolatedFromAbove)

	// Fresh-ID semantics: 0, 1, 2, … independent of anything else.
	if id := s.FreshID(); id != "0" {
		t.Fatalf("first fresh id %q", id)
	}
	if id := s.FreshID(); id != "1" {
		t.Fatalf("second fresh id %q", id)
	}

	// Type semantics: applying an extension records its result types.
	if err := s.Apply(constOp("0", 7, ir.I64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(constOp("1", 3, ir.I32)); err != nil {
		t.Fatal(err)
	}
	types := map[string]string{}
	for _, c := range s.Candidates(nil) {
		types[c.Val.ID] = c.Val.Type.String()
	}
	if types["0"] != "i64" || types["1"] != "i32" {
		t.Errorf("type table %v", types)
	}

	// Incremental update: one more extension extends — not recomputes —
	// the state.
	v2 := ir.V(s.FreshID(), ir.I64)
	if err := s.Apply(binOp("arith.addi", v2.ID, ir.I64, ir.V("0", ir.I64), ir.V("0", ir.I64))); err != nil {
		t.Fatal(err)
	}
	rt, ok := s.Value(v2.ID)
	if !ok {
		t.Fatal("value missing after Apply")
	}
	if got := rt.(rtval.Int).Signed(); got != 14 {
		t.Errorf("concrete interpretation says %d, want 14", got)
	}
}

// TestConcreteInterpretationGuidesChoices demonstrates Figure 11's
// discipline: the store knows which visible values are safe divisors.
func TestConcreteInterpretationGuidesChoices(t *testing.T) {
	s := newStore()
	s.PushScope(scoped.IsolatedFromAbove)
	if err := s.Apply(constOp("z", 0, ir.I64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(constOp("nz", 5, ir.I64)); err != nil {
		t.Fatal(err)
	}
	safe := s.Candidates(func(v ir.Value, rt rtval.Value) bool {
		i, ok := rt.(rtval.Int)
		return ok && i.Defined() && !i.IsZero()
	})
	if len(safe) != 1 || safe[0].Val.ID != "nz" {
		t.Errorf("safe divisors = %v", safe)
	}
}

// TestApplyRejectsUB: an extension that would introduce UB is rejected
// by the incremental evaluation — the generator can never emit one
// unnoticed.
func TestApplyRejectsUB(t *testing.T) {
	s := newStore()
	s.PushScope(scoped.IsolatedFromAbove)
	if err := s.Apply(constOp("a", 1, ir.I64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(constOp("z", 0, ir.I64)); err != nil {
		t.Fatal(err)
	}
	div := binOp("arith.divsi", "q", ir.I64, ir.V("a", ir.I64), ir.V("z", ir.I64))
	if err := s.Apply(div); err == nil {
		t.Fatal("division by zero must be rejected by Apply")
	}
}

// TestScopeDiscipline: region-scoped values vanish on PopScope;
// enclosing values stay visible through Standard scopes and are hidden
// by IsolatedFromAbove.
func TestScopeDiscipline(t *testing.T) {
	s := newStore()
	s.PushScope(scoped.IsolatedFromAbove)
	if err := s.Apply(constOp("outer", 1, ir.I64)); err != nil {
		t.Fatal(err)
	}

	s.PushScope(scoped.Standard)
	if err := s.Apply(constOp("inner", 2, ir.I64)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Value("outer"); !ok {
		t.Error("standard scope must see enclosing values")
	}
	s.PopScope()
	if _, ok := s.Value("inner"); ok {
		t.Error("region-local value escaped its scope")
	}

	s.PushScope(scoped.IsolatedFromAbove)
	if _, ok := s.Value("outer"); ok {
		t.Error("isolated scope must not see enclosing values")
	}
	s.PopScope()
}

// TestBindArg samples region arguments.
func TestBindArg(t *testing.T) {
	s := newStore()
	s.PushScope(scoped.Standard)
	arg := ir.V("arg0", ir.Index)
	if err := s.BindArg(arg, rtval.NewIndex(3)); err != nil {
		t.Fatal(err)
	}
	rt, ok := s.Value("arg0")
	if !ok || rt.(rtval.Int).Signed() != 3 {
		t.Errorf("bound arg = %v, %v", rt, ok)
	}
}

// TestOutputAccumulates: evaluated prints become the expected output.
func TestOutputAccumulates(t *testing.T) {
	s := newStore()
	s.PushScope(scoped.IsolatedFromAbove)
	if err := s.Apply(constOp("a", -5, ir.I8)); err != nil {
		t.Fatal(err)
	}
	p := ir.NewOp("vector.print")
	p.Operands = []ir.Value{ir.V("a", ir.I8)}
	if err := s.Apply(p); err != nil {
		t.Fatal(err)
	}
	if s.Output() != "-5\n" {
		t.Errorf("output %q", s.Output())
	}
}

// TestCandidatesDeterministic: candidate enumeration is sorted, so
// generation is reproducible.
func TestCandidatesDeterministic(t *testing.T) {
	s := newStore()
	s.PushScope(scoped.Standard)
	for _, id := range []string{"2", "10", "1"} {
		if err := s.Apply(constOp(id, 1, ir.I64)); err != nil {
			t.Fatal(err)
		}
	}
	c := s.Candidates(nil)
	if len(c) != 3 || c[0].Val.ID != "1" || c[1].Val.ID != "2" || c[2].Val.ID != "10" {
		ids := []string{}
		for _, x := range c {
			ids = append(ids, x.Val.ID)
		}
		t.Errorf("candidate order %v, want numeric [1 2 10]", ids)
	}
}

// refStore is the store's type table as it was before the candidate
// index: a stack of maps, queried by collecting the visible keys and
// insertion-sorting them with a strconv-based comparison. It is the
// reference the index must agree with, entry for entry.
type refStore struct {
	scopes []refScope
}

type refScope struct {
	kind scoped.ScopeType
	vals map[string]semantics.Candidate
}

func newRefStore() *refStore {
	return &refStore{scopes: []refScope{{kind: scoped.Standard, vals: map[string]semantics.Candidate{}}}}
}

func (r *refStore) push(kind scoped.ScopeType) {
	r.scopes = append(r.scopes, refScope{kind: kind, vals: map[string]semantics.Candidate{}})
}

func (r *refStore) pop() { r.scopes = r.scopes[:len(r.scopes)-1] }

// define reports whether the binding is accepted (no same-scope
// redefinition).
func (r *refStore) define(c semantics.Candidate) bool {
	in := r.scopes[len(r.scopes)-1].vals
	if _, dup := in[c.Val.ID]; dup {
		return false
	}
	in[c.Val.ID] = c
	return true
}

func (r *refStore) candidates(pred func(v ir.Value, rt rtval.Value) bool) []semantics.Candidate {
	seen := map[string]bool{}
	var ids []string
	for i := len(r.scopes) - 1; i >= 0; i-- {
		for k := range r.scopes[i].vals {
			if !seen[k] {
				seen[k] = true
				ids = append(ids, k)
			}
		}
		if r.scopes[i].kind == scoped.IsolatedFromAbove {
			break
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && refLess(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	var out []semantics.Candidate
	for _, id := range ids {
		var c semantics.Candidate
		for i := len(r.scopes) - 1; i >= 0; i-- {
			if v, ok := r.scopes[i].vals[id]; ok {
				c = v
				break
			}
		}
		if pred == nil || pred(c.Val, c.RT) {
			out = append(out, c)
		}
	}
	return out
}

// refLess orders IDs numerically when both are numeric, lexically
// otherwise, so %2 < %10.
func refLess(a, b string) bool {
	na, ea := strconv.Atoi(a)
	nb, eb := strconv.Atoi(b)
	if ea == nil && eb == nil {
		return na < nb
	}
	if (ea == nil) != (eb == nil) {
		return ea == nil
	}
	return a < b
}

func sameCandidates(got, want []semantics.Candidate) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Val.ID != want[i].Val.ID || !ir.TypeEqual(got[i].Val.Type, want[i].Val.Type) ||
			got[i].RT.String() != want[i].RT.String() {
			return false
		}
	}
	return true
}

func candidateIDs(cs []semantics.Candidate) []string {
	ids := make([]string, len(cs))
	for i, c := range cs {
		ids[i] = c.Val.ID
	}
	return ids
}

// TestCandidatesMatchReference drives random sequences of scope pushes
// and pops, applied constants with fresh numeric IDs, and argN block
// arguments (non-numeric, often bound before the numeric values of the
// same or an inner scope, sometimes shadowing an enclosing argN), and
// checks after every step that the candidate index returns exactly the
// reference order — unfiltered and filtered — and still rejects a
// same-scope redefinition.
func TestCandidatesMatchReference(t *testing.T) {
	types := []ir.Type{ir.I8, ir.I32, ir.I64}
	isI64 := func(v ir.Value, rt rtval.Value) bool { return ir.TypeEqual(v.Type, ir.I64) }
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, ref := newStore(), newRefStore()
		depth, fresh := 1, 0
		// defined remembers accepted bindings since the last pop, so a
		// rebinding attempt can reuse the same payload.
		var defined []semantics.Candidate
		for step := 0; step < 80; step++ {
			switch k := r.Intn(10); {
			case k == 0:
				s.PushScope(scoped.Standard)
				ref.push(scoped.Standard)
				depth++
			case k == 1:
				s.PushScope(scoped.IsolatedFromAbove)
				ref.push(scoped.IsolatedFromAbove)
				depth++
			case k == 2 && depth > 1:
				s.PopScope()
				ref.pop()
				depth--
				defined = nil
			case k <= 4:
				v := ir.V(fmt.Sprintf("arg%d", r.Intn(3)), types[r.Intn(len(types))])
				w, _ := ir.BitWidth(v.Type)
				c := semantics.Candidate{Val: v, RT: rtval.NewInt(w, int64(r.Intn(100)))}
				if ok := ref.define(c); ok != (s.BindArg(c.Val, c.RT) == nil) {
					t.Fatalf("seed %d step %d: BindArg %s accepted=%v by the reference only", seed, step, v.ID, ok)
				} else if ok {
					defined = append(defined, c)
				}
			case k == 5 && len(defined) > 0:
				// Rebind an earlier value with its own payload, so a
				// rejected attempt cannot change the interpretation: a
				// same-scope redefinition or a shadowing one.
				c := defined[r.Intn(len(defined))]
				if ok := ref.define(c); ok != (s.BindArg(c.Val, c.RT) == nil) {
					t.Fatalf("seed %d step %d: rebinding %s accepted=%v by the reference only", seed, step, c.Val.ID, ok)
				}
			default:
				ty := types[r.Intn(len(types))]
				op := constOp(strconv.Itoa(fresh), int64(r.Intn(100)), ty)
				fresh++
				if err := s.Apply(op); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				rt, _ := s.Value(op.Results[0].ID)
				c := semantics.Candidate{Val: op.Results[0], RT: rt}
				if !ref.define(c) {
					t.Fatalf("seed %d step %d: reference rejected fresh %s", seed, step, c.Val.ID)
				}
				defined = append(defined, c)
			}
			if got, want := s.Candidates(nil), ref.candidates(nil); !sameCandidates(got, want) {
				t.Fatalf("seed %d step %d: Candidates(nil) = %v, want %v", seed, step, candidateIDs(got), candidateIDs(want))
			}
			if got, want := s.ScalarsOfType(ir.I64), ref.candidates(isI64); !sameCandidates(got, want) {
				t.Fatalf("seed %d step %d: ScalarsOfType(i64) = %v, want %v", seed, step, candidateIDs(got), candidateIDs(want))
			}
		}
	}
}

// TestApplyRejectsSameScopeRedefinition: SSA IDs are unique within a
// scope (the first undesirable behaviour of the paper's Figure 4); an
// inner scope may shadow.
func TestApplyRejectsSameScopeRedefinition(t *testing.T) {
	s := newStore()
	s.PushScope(scoped.IsolatedFromAbove)
	if err := s.Apply(constOp("0", 1, ir.I64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(constOp("0", 1, ir.I64)); err == nil {
		t.Error("same-scope redefinition must be rejected")
	}
	s.PushScope(scoped.Standard)
	if err := s.Apply(constOp("0", 2, ir.I64)); err != nil {
		t.Errorf("shadowing in an inner scope: %v", err)
	}
	if c := s.Candidates(nil); len(c) != 1 || c[0].RT.(rtval.Int).Signed() != 2 {
		t.Errorf("shadowed candidates = %v, want the inner binding only", c)
	}
}

// TestCandidatesAllocateOnlyTheResult guards the index's scaling: a
// query walks the visible values in place, so it makes one allocation
// (its result) however many values are visible.
func TestCandidatesAllocateOnlyTheResult(t *testing.T) {
	for _, n := range []int{10, 500} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			s := newStore()
			s.PushScope(scoped.IsolatedFromAbove)
			for i := 0; i < n; i++ {
				if i == n/2 {
					s.PushScope(scoped.Standard)
				}
				if err := s.Apply(constOp(s.FreshID(), int64(i), ir.I64)); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if len(s.Candidates(nil)) != n || len(s.ScalarsOfType(ir.I64)) != n {
					t.Fatal("wrong candidate count")
				}
			})
			// Two queries per run, one result slice each.
			if allocs > 2 {
				t.Errorf("two queries over %d values allocated %.1f per run, want <= 2", n, allocs)
			}
		})
	}
}
