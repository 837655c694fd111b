package telemetry

import (
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var h *Histogram
	h.Observe(100)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded something")
	}
	var v *CounterVec
	v.Inc("x")
	v.Add("y", 2)
	if v.With("x") != nil {
		t.Fatal("nil vec handed out a counter")
	}
}

func TestNilRegistryHandsOutNilInstruments(t *testing.T) {
	var r *Registry
	if r.Counter("a", "") != nil ||
		r.Histogram("c", "") != nil || r.CounterVec("d", "l", "") != nil {
		t.Fatal("nil registry returned a live instrument")
	}
	r.GaugeFunc("e", "", func() int64 { return 1 }) // must not panic
	if got := r.PrometheusText(); got != "" {
		t.Fatalf("nil registry rendered %q", got)
	}
	if n := len(r.Snapshot()); n != 0 {
		t.Fatalf("nil registry snapshot has %d entries", n)
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits", "h")
	b := r.Counter("hits", "h")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliased counters diverged")
	}
	// Same name, different labels: distinct series.
	l1 := r.CounterWith("reqs", `code="200"`, "")
	l2 := r.CounterWith("reqs", `code="500"`, "")
	if l1 == l2 {
		t.Fatal("distinct label sets shared a counter")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	depth := int64(10)
	r.GaugeFunc("depth", "", func() int64 { return depth })
	depth -= 3
	if got := r.Snapshot()["depth"]; got != int64(7) {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ops", "op", "ops by name")
	v.Inc("add")
	v.Inc("add")
	v.Add("mul", 3)
	if got := v.With("add").Value(); got != 2 {
		t.Fatalf("add = %d, want 2", got)
	}
	if got := v.With("mul").Value(); got != 3 {
		t.Fatalf("mul = %d, want 3", got)
	}
	// The vec's series share the family name in the registry.
	if r.CounterWith("ops", `op="add"`, "") != v.With("add") {
		t.Fatal("vec series not visible through the registry")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	h := r.Histogram("lat", "")
	v := r.CounterVec("ops", "op", "")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(uint64(i))
				v.Inc("x")
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	if v.With("x").Value() != workers*perWorker {
		t.Fatalf("vec = %d, want %d", v.With("x").Value(), workers*perWorker)
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		`a"b`:          `a\"b`,
		`a\b`:          `a\\b`,
		"a\nb":         `a\nb`,
		`mix"\` + "\n": `mix\"\\\n`,
	}
	for in, want := range cases {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
