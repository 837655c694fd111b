package scoped

import "testing"

func TestDefineLookup(t *testing.T) {
	tab := New[int]()
	if err := tab.Define("a", 1); err != nil {
		t.Fatal(err)
	}
	if v, ok := tab.Lookup("a"); !ok || v != 1 {
		t.Errorf("Lookup a = %d, %v", v, ok)
	}
	if _, ok := tab.Lookup("b"); ok {
		t.Error("b should not be bound")
	}
	if err := tab.Define("a", 2); err == nil {
		t.Error("redefinition in same scope must fail (Figure 4 case 1)")
	}
}

func TestStandardScopeSeesParent(t *testing.T) {
	tab := New[string]()
	mustDefine(t, tab, "outer", "o")
	tab.Push(Standard)
	mustDefine(t, tab, "inner", "i")
	if v, ok := tab.Lookup("outer"); !ok || v != "o" {
		t.Error("standard scope must see parent bindings")
	}
	if v, ok := tab.Lookup("inner"); !ok || v != "i" {
		t.Error("inner binding lost")
	}
	// Shadowing in an inner scope is allowed (different scope).
	if err := tab.Define("outer", "shadow"); err != nil {
		t.Fatal(err)
	}
	if v, _ := tab.Lookup("outer"); v != "shadow" {
		t.Error("inner definition should shadow outer")
	}
	tab.Pop()
	if v, _ := tab.Lookup("outer"); v != "o" {
		t.Error("pop should unshadow")
	}
	if _, ok := tab.Lookup("inner"); ok {
		t.Error("inner binding should be gone after pop")
	}
}

func TestIsolatedFromAboveHidesParent(t *testing.T) {
	tab := New[int]()
	mustDefine(t, tab, "x", 1)
	tab.Push(IsolatedFromAbove)
	if _, ok := tab.Lookup("x"); ok {
		t.Error("isolated scope must not see parent bindings")
	}
	mustDefine(t, tab, "y", 2)
	tab.Push(Standard)
	if _, ok := tab.Lookup("x"); ok {
		t.Error("lookup must stop at the isolated boundary")
	}
	if v, ok := tab.Lookup("y"); !ok || v != 2 {
		t.Error("standard scope inside isolated scope must see it")
	}
}

func TestPopOutermostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("pop of outermost scope should panic")
		}
	}()
	New[int]().Pop()
}

func TestInInnermost(t *testing.T) {
	tab := NewSlotTable()
	tab.Push(Standard)
	tab.Alloc("x")
	tab.Push(Standard)
	if tab.InInnermost("x") {
		t.Error("x is in the parent, not innermost")
	}
	tab.Alloc("x")
	if !tab.InInnermost("x") {
		t.Error("x now bound in innermost")
	}
}

func mustDefine[V any](t *testing.T, tab *Table[V], k string, v V) {
	t.Helper()
	if err := tab.Define(k, v); err != nil {
		t.Fatal(err)
	}
}
