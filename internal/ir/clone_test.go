package ir_test

import (
	"fmt"
	"sync"
	"testing"

	"ratte/internal/gen"
	"ratte/internal/ir"
)

// branchProgram adds what generated source modules lack: successors
// with and without arguments, and multi-block regions.
const branchProgram = `
"builtin.module"() ({
^bb0:
  "func.func"() ({
  ^bb0(%a: i64, %c: i1):
    "cf.cond_br"(%c)[^bb1(%a : i64), ^bb2] : (i1) -> ()
  ^bb1(%x: i64):
    "cf.br"()[^bb2] : () -> ()
  ^bb2:
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = (i64, i1) -> ()} : () -> ()
}) : () -> ()
`

type namedModule struct {
	name string
	m    *ir.Module
}

// cloneCorpus is the Figure 2 module, a branching module, and generated
// programs of every preset.
func cloneCorpus(t *testing.T) []namedModule {
	t.Helper()
	var ms []namedModule
	for _, c := range []struct{ name, text string }{{"figure2", ir.Figure2Program}, {"branches", branchProgram}} {
		m, err := ir.Parse(c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ms = append(ms, namedModule{c.name, m})
	}
	for _, preset := range gen.AllPresets() {
		for seed := int64(1); seed <= 10; seed++ {
			p, err := gen.Generate(gen.Config{Preset: preset, Size: 30, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, namedModule{fmt.Sprintf("%s seed %d", preset, seed), p.Module})
		}
	}
	return ms
}

var sentinel = ir.V("clone_test", ir.I64)

// editClone applies the edits a pass makes to every op, block and
// region of a clone.
func editClone(op *ir.Operation) {
	op.Operands = append(op.Operands, sentinel)
	if keys := op.Attrs.Keys(); len(keys) > 0 {
		op.Attrs.Delete(keys[0])
	}
	op.Attrs.Set("clone_test", ir.UnitAttr{})
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			b.Args = append(b.Args, sentinel)
			for _, inner := range b.Ops {
				editClone(inner)
			}
			b.Append(ir.NewOp("test.appended"))
		}
	}
}

// appendAll appends one element to every slice Clone carves under op:
// operands, results, attribute keys and values, successors and their
// arguments, regions, blocks, block arguments and block ops.
func appendAll(op *ir.Operation) {
	op.Operands = append(op.Operands, sentinel)
	op.Results = append(op.Results, sentinel)
	op.Attrs.Set("clone_test", ir.UnitAttr{})
	for i := range op.Successors {
		op.Successors[i].Args = append(op.Successors[i].Args, sentinel)
	}
	op.Successors = append(op.Successors, ir.Successor{Block: "clone_test"})
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			b.Args = append(b.Args, sentinel)
			for _, inner := range b.Ops {
				appendAll(inner)
			}
			b.Append(ir.NewOp("test.appended"))
		}
		r.Blocks = append(r.Blocks, &ir.Block{Label: "clone_test"})
	}
	op.Regions = append(op.Regions, &ir.Region{})
}

// checkAppended reports the first way c, an appendAll-ed clone of src,
// differs from src plus exactly one appended element per slice. A
// carved slice whose capacity ran into its slab neighbour lets an
// append overwrite that neighbour, which shows up here as a changed
// element of another slice.
func checkAppended(t *testing.T, where string, src, c *ir.Operation) {
	t.Helper()
	values := func(what string, got, want []ir.Value) {
		t.Helper()
		if len(got) != len(want)+1 || got[len(want)] != sentinel {
			t.Fatalf("%s: %s %s: got %v, want %v plus the appended value", where, src.Name, what, got, want)
		}
		for i := range want {
			if got[i].ID != want[i].ID || !ir.TypeEqual(got[i].Type, want[i].Type) {
				t.Fatalf("%s: %s %s[%d] = %v, want %v", where, src.Name, what, i, got[i], want[i])
			}
		}
	}
	if c.Name != src.Name {
		t.Fatalf("%s: op %s became %s", where, src.Name, c.Name)
	}
	values("operands", c.Operands, src.Operands)
	values("results", c.Results, src.Results)
	keys := c.Attrs.Keys()
	if len(keys) != src.Attrs.Len()+1 || keys[len(keys)-1] != "clone_test" {
		t.Fatalf("%s: %s attributes %v, want %v plus clone_test", where, src.Name, keys, src.Attrs.Keys())
	}
	for i, k := range src.Attrs.Keys() {
		if keys[i] != k || c.Attrs.Get(k).String() != src.Attrs.Get(k).String() {
			t.Fatalf("%s: %s attribute %d = %s, want %s", where, src.Name, i, keys[i], k)
		}
	}
	if len(c.Successors) != len(src.Successors)+1 {
		t.Fatalf("%s: %s has %d successors, want %d", where, src.Name, len(c.Successors), len(src.Successors)+1)
	}
	for i, s := range src.Successors {
		if c.Successors[i].Block != s.Block {
			t.Fatalf("%s: %s successor %d = ^%s, want ^%s", where, src.Name, i, c.Successors[i].Block, s.Block)
		}
		values("successor args", c.Successors[i].Args, s.Args)
	}
	if len(c.Regions) != len(src.Regions)+1 {
		t.Fatalf("%s: %s has %d regions, want %d", where, src.Name, len(c.Regions), len(src.Regions)+1)
	}
	for i, r := range src.Regions {
		cr := c.Regions[i]
		if len(cr.Blocks) != len(r.Blocks)+1 {
			t.Fatalf("%s: %s region %d has %d blocks, want %d", where, src.Name, i, len(cr.Blocks), len(r.Blocks)+1)
		}
		for j, b := range r.Blocks {
			cb := cr.Blocks[j]
			if cb.Label != b.Label {
				t.Fatalf("%s: block ^%s became ^%s", where, b.Label, cb.Label)
			}
			values("block args", cb.Args, b.Args)
			if len(cb.Ops) != len(b.Ops)+1 || cb.Ops[len(b.Ops)].Name != "test.appended" {
				t.Fatalf("%s: block ^%s has %d ops, want %d plus the appended op", where, b.Label, len(cb.Ops), len(b.Ops))
			}
			for k, op := range b.Ops {
				checkAppended(t, where, op, cb.Ops[k])
			}
		}
	}
}

// TestCloneIsIndependent checks Module.Clone on every preset's
// generated programs and two hand-written modules: the clone prints
// like its source, edits to the clone never reach the source, and
// appending to any slice of the clone changes nothing else in it.
func TestCloneIsIndependent(t *testing.T) {
	for _, c := range cloneCorpus(t) {
		name, m := c.name, c.m
		want := ir.Print(m)
		if got := ir.Print(m.Clone()); got != want {
			t.Fatalf("%s: clone prints\n%s\nwant\n%s", name, got, want)
		}

		edited := m.Clone()
		editClone(edited.Op)
		if ir.Print(m) != want {
			t.Fatalf("%s: editing the clone changed its source", name)
		}
		if ir.Print(edited) == want {
			t.Fatalf("%s: the edits did not reach the clone", name)
		}

		grown := m.Clone()
		appendAll(grown.Op)
		if ir.Print(m) != want {
			t.Fatalf("%s: appending to the clone changed its source", name)
		}
		checkAppended(t, name, m.Op, grown.Op)
	}
}

// TestConcurrentClones clones one module from two goroutines; under
// -race it fails if Clone writes to its source.
func TestConcurrentClones(t *testing.T) {
	p, err := gen.Generate(gen.Config{Preset: "all", Size: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := ir.Print(p.Module)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := ir.Print(p.Module.Clone()); got != want {
					t.Errorf("concurrent clone prints\n%s\nwant\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
