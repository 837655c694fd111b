// Slot resolution: the compile-time companion of Table. A SlotTable
// walks the same scope discipline as Table[V] — a stack of Standard /
// IsolatedFromAbove scopes — but instead of holding runtime values it
// assigns each (scope, key) binding a dense integer slot. The
// interpreter's compile step (internal/interp.Compile) uses it to
// replace string-keyed environment lookups with direct frame indexing:
// every binding a program can create is enumerated once, ahead of
// execution, and every use is resolved to the slot it would find at
// run time.
//
// The equivalence with Table relies on one property of the interpreter
// effects layer: bindings are only ever written in the innermost scope
// (Table.Bind), so an enclosing scope's bindings are immutable while an
// inner scope executes. Under that discipline, "which binding does this
// use see" is a purely lexical question, answerable at compile time.
//
// Scopes are backed by small slices, not maps: a scope holds the
// bindings of one region (a few dozen at most), where a linear scan
// beats a map both on lookup and — decisively — on construction.
// Popped scopes keep their backing arrays for the next Push, so a whole
// compilation allocates a handful of arrays however many regions it
// walks. One SlotTable serves one compilation; it is not safe for
// concurrent use.
package scoped

// SlotRef is a resolved binding: the frame slot it lives in and the
// scope depth (0 = outermost scope of the walk) that owns it.
type SlotRef struct {
	Slot  int
	Depth int
}

type slotEntry struct {
	key  string
	slot int
}

type slotScope struct {
	entries []slotEntry
	kind    ScopeType
}

// SlotTable allocates dense frame slots for string keys under the same
// visibility rules as Table: resolution walks innermost-out and stops
// at (and including) the first IsolatedFromAbove scope. Slots are
// allocated monotonically; NumSlots is the frame size needed to hold
// every binding allocated through the table.
type SlotTable struct {
	scopes []slotScope
	live   int // scopes[:live] are active; the rest cache backing arrays
	next   int
}

// NewSlotTable returns an empty slot table with no scopes; callers push
// the outermost scope themselves (for the interpreter compiler, the
// function body region).
func NewSlotTable() *SlotTable {
	return &SlotTable{}
}

// Push enters a new innermost scope of the given kind.
func (t *SlotTable) Push(kind ScopeType) {
	if t.live < len(t.scopes) {
		s := &t.scopes[t.live]
		s.entries = s.entries[:0]
		s.kind = kind
	} else {
		t.scopes = append(t.scopes, slotScope{kind: kind})
	}
	t.live++
}

// Pop leaves the innermost scope. Its slot assignments are forgotten
// for resolution purposes, but the slots themselves stay allocated —
// distinct scopes must not share frame storage, because a re-entered
// scope is cleared wholesale while its siblings' values survive.
func (t *SlotTable) Pop() {
	if t.live == 0 {
		panic("scoped: pop of empty slot table")
	}
	t.live--
}

// Depth returns the current scope-stack depth.
func (t *SlotTable) Depth() int { return t.live }

// Next returns the next slot that Alloc would hand out; [lo, hi) pairs
// of Next() calls delimit the contiguous slot range a scope owns.
func (t *SlotTable) Next() int { return t.next }

// NumSlots returns the total number of slots allocated so far.
func (t *SlotTable) NumSlots() int { return t.next }

// Alloc binds key in the innermost scope and returns its slot. Like
// Table.Bind, allocating a key already bound in the innermost scope is
// idempotent: the existing slot is returned, because at run time both
// writes would hit the same binding.
func (t *SlotTable) Alloc(key string) int {
	s := &t.scopes[t.live-1]
	for i := range s.entries {
		if s.entries[i].key == key {
			return s.entries[i].slot
		}
	}
	slot := t.next
	t.next++
	s.entries = append(s.entries, slotEntry{key: key, slot: slot})
	return slot
}

func (s *slotScope) find(key string) (int, bool) {
	for i := range s.entries {
		if s.entries[i].key == key {
			return s.entries[i].slot, true
		}
	}
	return 0, false
}

// Resolve finds the binding a runtime Lookup of key would see: the
// innermost visible scope that binds it, honouring IsolatedFromAbove
// barriers. The returned Depth is the owning scope's index on the
// stack.
func (t *SlotTable) Resolve(key string) (SlotRef, bool) {
	for i := t.live - 1; i >= 0; i-- {
		if slot, ok := t.scopes[i].find(key); ok {
			return SlotRef{Slot: slot, Depth: i}, true
		}
		if t.scopes[i].kind == IsolatedFromAbove {
			break
		}
	}
	return SlotRef{}, false
}

// ResolveShadowed returns the outer bindings of key hidden behind the
// binding at scope depth, innermost-out, honouring IsolatedFromAbove
// barriers. The compiled interpreter uses them to emulate the tree
// walker's dynamic lookup exactly: a pre-allocated inner slot that has
// not been written yet must fall through to the shadowed outer binding,
// just as Table.Lookup would before the inner Bind happens. Shadowing is
// rare (SSA ids are normally unique within a function), so the common
// result is nil with no allocation.
func (t *SlotTable) ResolveShadowed(key string, depth int) []SlotRef {
	if depth < 0 || depth >= t.live || t.scopes[depth].kind == IsolatedFromAbove {
		return nil
	}
	var refs []SlotRef
	for i := depth - 1; i >= 0; i-- {
		if slot, ok := t.scopes[i].find(key); ok {
			refs = append(refs, SlotRef{Slot: slot, Depth: i})
		}
		if t.scopes[i].kind == IsolatedFromAbove {
			break
		}
	}
	return refs
}

// InInnermost reports whether key is already bound in the innermost
// scope (i.e. whether Alloc would be a no-op).
func (t *SlotTable) InInnermost(key string) bool {
	_, ok := t.scopes[t.live-1].find(key)
	return ok
}
