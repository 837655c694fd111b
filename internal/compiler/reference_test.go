package compiler

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ratte/internal/coverage"
	"ratte/internal/gen"
	"ratte/internal/ir"
)

// refNamer is the map namer the bitset namer replaced: it records
// every SSA id of the function and every id it hands out.
type refNamer struct {
	used map[string]bool
	n    int
}

func newRefNamer(f *ir.Operation) *refNamer {
	nm := &refNamer{used: make(map[string]bool)}
	f.Walk(func(op *ir.Operation) bool {
		for _, r := range op.Results {
			nm.used[r.ID] = true
		}
		for _, reg := range op.Regions {
			for _, b := range reg.Blocks {
				for _, a := range b.Args {
					nm.used[a.ID] = true
				}
			}
		}
		return true
	})
	return nm
}

func (nm *refNamer) Fresh() string {
	for {
		id := "v" + strconv.Itoa(nm.n)
		nm.n++
		if !nm.used[id] {
			nm.used[id] = true
			return id
		}
	}
}

// refUsedIDs, refUsedIDsOfFunc and refDCE are the dead-op sweep the
// single use count replaced: every sweep rebuilds the use map, one map
// per block merged into a function map, and a sweep's removals only
// take effect at the next sweep.
func refUsedIDs(ops []*ir.Operation) map[string]int {
	uses := make(map[string]int)
	var walk func(ops []*ir.Operation)
	walk = func(ops []*ir.Operation) {
		for _, op := range ops {
			for _, o := range op.Operands {
				uses[o.ID]++
			}
			for _, s := range op.Successors {
				for _, a := range s.Args {
					uses[a.ID]++
				}
			}
			for _, r := range op.Regions {
				for _, b := range r.Blocks {
					walk(b.Ops)
				}
			}
		}
	}
	walk(ops)
	return uses
}

func refUsedIDsOfFunc(f *ir.Operation) map[string]int {
	uses := make(map[string]int)
	for _, r := range f.Regions {
		for _, b := range r.Blocks {
			for id, n := range refUsedIDs(b.Ops) {
				uses[id] += n
			}
		}
	}
	return uses
}

func refDCE(f *ir.Operation, removed func(*ir.Operation)) {
	for {
		any := false
		uses := refUsedIDsOfFunc(f)
		_ = forEachBlock(f, func(b *ir.Block) error {
			var kept []*ir.Operation
			for _, op := range b.Ops {
				if isPure(op) && !anyResultUsed(op, uses) {
					removed(op)
					any = true
					continue
				}
				kept = append(kept, op)
			}
			b.Ops = kept
			return nil
		})
		if !any {
			return
		}
	}
}

// refCanonicalize is runCanonicalize with refDCE in place of dce.
func refCanonicalize(m *ir.Module, opts *Options) error {
	for _, f := range funcsOf(m) {
		c := &canonicalizer{opts: opts, nm: newNamer(f), f: f}
		for iter := 0; iter < 8; iter++ {
			c.changed = false
			consts := constMap{}
			for _, r := range f.Regions {
				for _, b := range r.Blocks {
					c.block(b, consts)
				}
			}
			refDCE(f, func(op *ir.Operation) {
				c.opts.cover(covCanonDCE, op.Name)
				c.changed = true
			})
			if !c.changed {
				break
			}
		}
	}
	return nil
}

// refRemoveDeadValues is runRemoveDeadValues without its bug-3 check
// (whose use map the test compares on its own), with refDCE in place
// of removeDeadOps.
func refRemoveDeadValues(m *ir.Module, opts *Options) error {
	for _, f := range funcsOf(m) {
		refDCE(f, func(op *ir.Operation) { opts.cover(covDeadRemove, op.Name) })
	}
	called := map[string]bool{"main": true}
	m.Walk(func(op *ir.Operation) bool {
		if op.Name == "func.call" || op.Name == "llvm.call" {
			if sym, ok := op.Attrs.Get("callee").(ir.SymbolRefAttr); ok {
				called[sym.Name] = true
			}
		}
		return true
	})
	var kept []*ir.Operation
	for _, op := range m.Body().Ops {
		if op.Name == "func.func" || op.Name == "llvm.func" {
			if !called[ir.FuncSymbol(op)] {
				opts.cover(covDeadRemove, op.Name)
				continue
			}
		}
		kept = append(kept, op)
	}
	m.Body().Ops = kept
	return nil
}

// checkNamer compares the first ids the bitset namer and the map namer
// hand out for f: enough to pass every id f holds.
func checkNamer(t *testing.T, where string, f *ir.Operation) {
	t.Helper()
	nm, ref := newNamer(f), newRefNamer(f)
	n := 64 + len(ref.used)
	for i := 0; i < n; i++ {
		if got, want := nm.Fresh(), ref.Fresh(); got != want {
			t.Fatalf("%s: Fresh #%d = %s, want %s", where, i, got, want)
		}
	}
}

// checkPassMatches runs pass and its reference on clones of m and
// compares their error, module text and coverage counts.
func checkPassMatches(t *testing.T, where string, m *ir.Module, pass, ref func(*ir.Module, *Options) error) {
	t.Helper()
	got, want := m.Clone(), m.Clone()
	gotOpts := &Options{Coverage: coverage.NewMap()}
	wantOpts := &Options{Coverage: coverage.NewMap()}
	gotErr, wantErr := pass(got, gotOpts), ref(want, wantOpts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", where, gotErr, wantErr)
	}
	if gotErr == nil && ir.Print(got) != ir.Print(want) {
		t.Fatalf("%s: module\n%s\nreference\n%s", where, ir.Print(got), ir.Print(want))
	}
	if g, w := gotOpts.Coverage.Summary(), wantOpts.Coverage.Summary(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: coverage %v, reference %v", where, g, w)
	}
}

// TestRewritesMatchReference drives seeds 1–200 of every preset through
// the O2 pipeline, which runs every pass the preset uses. On the module
// each pass receives, it checks that every function's use counts and
// namer ids match the reference's, and that canonicalize and
// remove-dead-values give the reference's module text, error and
// coverage counts.
func TestRewritesMatchReference(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	for _, preset := range gen.AllPresets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			names, err := PipelineFor(preset, O2)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= seeds; seed++ {
				p, err := gen.Generate(gen.Config{Preset: preset, Size: 30, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				m := p.Module.Clone()
				for _, name := range names {
					where := fmt.Sprintf("seed %d before %s", seed, name)
					for _, f := range funcsOf(m) {
						fwhere := where + " @" + ir.FuncSymbol(f)
						if got, want := useCounts(f), refUsedIDsOfFunc(f); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: use counts %v, reference %v", fwhere, got, want)
						}
						checkNamer(t, fwhere, f)
					}
					checkPassMatches(t, where+": canonicalize", m, runCanonicalize, refCanonicalize)
					checkPassMatches(t, where+": remove-dead-values", m, runRemoveDeadValues, refRemoveDeadValues)
					if err := runPass(registry[name](), m, &Options{}); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
			}
		})
	}
}

// TestNamerEdgeIDs feeds the namer ids that look canonical but are not
// ("v", "v01", "v007", "vx"), canonical ones it must skip, and a huge
// canonical id, which must land in the overflow map rather than the
// bitset.
func TestNamerEdgeIDs(t *testing.T) {
	huge := "v" + strings.Repeat("9", 40)
	ids := []string{"v", "v0", "v01", "v007", "vx", "v2", "v3x", "v65535", "v65536", "v99999999", huge}
	f := ir.NewOp("func.func")
	body := ir.NewRegion()
	for _, id := range ids {
		op := ir.NewOp("test.def")
		op.Results = []ir.Value{ir.V(id, ir.I64)}
		body.Entry().Append(op)
	}
	f.Regions = []*ir.Region{body}

	checkNamer(t, "edge ids", f)
	nm := newNamer(f)
	if got := []string{nm.Fresh(), nm.Fresh(), nm.Fresh()}; !reflect.DeepEqual(got, []string{"v1", "v3", "v4"}) {
		t.Fatalf("first fresh ids = %v, want [v1 v3 v4]", got)
	}
	if words := len(nm.bits); words > namerBits/64 {
		t.Fatalf("bitset grew to %d words, bound is %d", words, namerBits/64)
	}
	for _, id := range []string{"v65536", "v99999999", huge} {
		if !nm.big[id] {
			t.Errorf("%s is not in the overflow map", id)
		}
	}
	nm.n = 65535
	if got := []string{nm.Fresh(), nm.Fresh()}; !reflect.DeepEqual(got, []string{"v65537", "v65538"}) {
		t.Fatalf("fresh ids past v65534 = %v, want [v65537 v65538]", got)
	}
}
