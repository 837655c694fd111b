package telemetry

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// buildTestRegistry populates a registry with one of everything.
func buildTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("ratte_hits_total", "total hits").Add(7)
	r.GaugeFunc("ratte_depth", "queue depth", func() int64 { return -3 })
	r.GaugeFunc("ratte_cache_size", "entries", func() int64 { return 42 })
	h := r.Histogram("ratte_latency_ns", "op latency")
	h.Observe(500)
	h.Observe(2000)
	v := r.CounterVec("ratte_ops_total", "op", "ops by name")
	v.Inc("add")
	v.Add("mul", 2)
	return r
}

// TestPrometheusExposition validates the text output against the
// exposition format's structural rules: HELP/TYPE once per family,
// every series parseable as `name{labels} value`, histogram buckets
// cumulative and le-ordered, _count consistent with the +Inf bucket.
func TestPrometheusExposition(t *testing.T) {
	text := buildTestRegistry().PrometheusText()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")

	helpSeen := map[string]int{}
	typeSeen := map[string]int{}
	values := map[string]float64{}
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			helpSeen[parts[0]]++
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown TYPE %q", line)
			}
			typeSeen[parts[0]]++
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line %q", line)
		default:
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("malformed sample line %q", line)
			}
			val, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
			values[line[:i]] = val
		}
	}
	for fam, n := range helpSeen {
		if n != 1 {
			t.Errorf("family %s has %d HELP lines", fam, n)
		}
	}
	for fam, n := range typeSeen {
		if n != 1 {
			t.Errorf("family %s has %d TYPE lines", fam, n)
		}
	}

	if values["ratte_hits_total"] != 7 {
		t.Errorf("counter exported %v, want 7", values["ratte_hits_total"])
	}
	if values["ratte_depth"] != -3 {
		t.Errorf("gauge exported %v, want -3", values["ratte_depth"])
	}
	if values["ratte_cache_size"] != 42 {
		t.Errorf("gauge func exported %v, want 42", values["ratte_cache_size"])
	}
	if values[`ratte_ops_total{op="add"}`] != 1 || values[`ratte_ops_total{op="mul"}`] != 2 {
		t.Error("labelled counter series wrong")
	}

	// Histogram: buckets must be cumulative (monotone in le order) and
	// the +Inf bucket must equal _count.
	var prev float64
	for i := 0; i < numHistBuckets; i++ {
		key := fmt.Sprintf(`ratte_latency_ns_bucket{le="%d"}`, bucketBound(i))
		cum, ok := values[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if cum < prev {
			t.Fatalf("bucket %s not cumulative: %v < %v", key, cum, prev)
		}
		prev = cum
	}
	inf := values[`ratte_latency_ns_bucket{le="+Inf"}`]
	if inf != values["ratte_latency_ns_count"] {
		t.Errorf("+Inf bucket %v != _count %v", inf, values["ratte_latency_ns_count"])
	}
	if values["ratte_latency_ns_count"] != 2 || values["ratte_latency_ns_sum"] != 2500 {
		t.Errorf("histogram count/sum = %v/%v, want 2/2500",
			values["ratte_latency_ns_count"], values["ratte_latency_ns_sum"])
	}
}

func TestPrometheusDeterministicOrder(t *testing.T) {
	a := buildTestRegistry().PrometheusText()
	b := buildTestRegistry().PrometheusText()
	if a != b {
		t.Fatal("two identical registries rendered differently")
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := buildTestRegistry()
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if got["ratte_hits_total"].(float64) != 7 {
		t.Errorf("counter = %v, want 7", got["ratte_hits_total"])
	}
	if got["ratte_depth"].(float64) != -3 {
		t.Errorf("gauge = %v, want -3", got["ratte_depth"])
	}
	hist, ok := got["ratte_latency_ns"].(map[string]any)
	if !ok {
		t.Fatalf("histogram missing from snapshot: %v", got["ratte_latency_ns"])
	}
	if hist["count"].(float64) != 2 || hist["sum_ns"].(float64) != 2500 {
		t.Errorf("histogram snapshot = %v", hist)
	}
}
