// Package scoped implements the parameterisable hierarchical symbol
// table of the Ratte paper (§3.2): a stack of scopes, each tagged with a
// visibility discipline that captures MLIR's value scoping rules.
//
// A Standard scope can read bindings of its parents; an
// IsolatedFromAbove scope (e.g. a func.func body) sees only bindings
// introduced at or below itself.
package scoped

import "fmt"

// ScopeType is the visibility tag of a scope.
type ScopeType int

const (
	// Standard scopes can access everything their parent can access.
	Standard ScopeType = iota
	// IsolatedFromAbove scopes hide all enclosing bindings.
	IsolatedFromAbove
)

func (s ScopeType) String() string {
	switch s {
	case Standard:
		return "Standard"
	case IsolatedFromAbove:
		return "IsolatedFromAbove"
	}
	return fmt.Sprintf("ScopeType(%d)", int(s))
}

type scope[V any] struct {
	vals map[string]V
	kind ScopeType
}

// Table is a stack of scopes mapping string keys (SSA value IDs, symbol
// names, …) to values of type V. The zero Table is not usable; call New.
type Table[V any] struct {
	scopes []scope[V] // index 0 is the outermost scope
}

// New returns a table with a single outermost Standard scope.
func New[V any]() *Table[V] {
	t := &Table[V]{}
	t.Push(Standard)
	return t
}

// Push enters a new innermost scope with the given visibility.
func (t *Table[V]) Push(kind ScopeType) {
	t.scopes = append(t.scopes, scope[V]{vals: make(map[string]V), kind: kind})
}

// Pop leaves the innermost scope, discarding its bindings. Popping the
// last scope panics: it indicates a bug in region bookkeeping.
func (t *Table[V]) Pop() {
	if len(t.scopes) <= 1 {
		panic("scoped: pop of outermost scope")
	}
	t.scopes = t.scopes[:len(t.scopes)-1]
}

// Depth returns the number of scopes currently on the stack.
func (t *Table[V]) Depth() int { return len(t.scopes) }

// Define binds key in the innermost scope. It returns an error if key is
// already bound in the innermost scope (SSA IDs must be unique within a
// scope — the first undesirable behaviour of the paper's Figure 4).
func (t *Table[V]) Define(key string, v V) error {
	s := &t.scopes[len(t.scopes)-1]
	if _, dup := s.vals[key]; dup {
		return fmt.Errorf("scoped: redefinition of %q in the same scope", key)
	}
	s.vals[key] = v
	return nil
}

// Bind sets key in the innermost scope, overwriting any existing binding
// in that scope. Interpreters executing lowered loop code use Bind: a
// block re-entered by a back edge re-executes its operations, re-binding
// the same SSA identifiers.
func (t *Table[V]) Bind(key string, v V) {
	t.scopes[len(t.scopes)-1].vals[key] = v
}

// Lookup resolves key through the visible scopes: from the innermost
// scope outward, stopping at (and including) the first
// IsolatedFromAbove scope.
func (t *Table[V]) Lookup(key string) (V, bool) {
	for i := len(t.scopes) - 1; i >= 0; i-- {
		if v, ok := t.scopes[i].vals[key]; ok {
			return v, true
		}
		if t.scopes[i].kind == IsolatedFromAbove {
			break
		}
	}
	var zero V
	return zero, false
}
