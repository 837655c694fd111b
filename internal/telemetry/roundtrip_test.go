package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

// parsePromCounters is a minimal 0.0.4 text-format parser for the
// round-trip tests: it returns counter/gauge sample lines as
// series -> value, with label values unescaped. It rejects lines it
// cannot parse, so a malformed exposition fails the test rather than
// vanishing.
func parsePromCounters(t *testing.T, text string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		series, value := line[:sp], line[sp+1:]
		if open := strings.IndexByte(series, '{'); open >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			name := series[:open]
			labels := parsePromLabels(t, line, series[open+1:len(series)-1])
			series = name + "{" + labels + "}"
		}
		out[series] = value
	}
	return out
}

// parsePromLabels walks a label body (`k="v",...`), unescaping each
// value per the exposition rules, and re-renders it with raw values —
// so a correct escape round-trips to the original input.
func parsePromLabels(t *testing.T, line, body string) string {
	t.Helper()
	var parts []string
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 || eq+i+1 >= len(body) || body[i+eq+1] != '"' {
			t.Fatalf("bad label pair in %q", line)
		}
		key := body[i : i+eq]
		j := i + eq + 2 // first byte of the value
		var val strings.Builder
		for {
			if j >= len(body) {
				t.Fatalf("unterminated label value in %q", line)
			}
			c := body[j]
			if c == '"' {
				break
			}
			if c == '\\' {
				if j+1 >= len(body) {
					t.Fatalf("dangling escape in %q", line)
				}
				switch body[j+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("unknown escape \\%c in %q", body[j+1], line)
				}
				j += 2
				continue
			}
			val.WriteByte(c)
			j++
		}
		parts = append(parts, key+"="+val.String())
		i = j + 1
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return strings.Join(parts, ",")
}

// TestCounterVecLabelEscapeRoundTrip pins the exposition of label
// values containing the characters the 0.0.4 format escapes: a value
// with `"`, `\` or a newline must render as a parseable sample line
// whose unescaped value equals the original.
func TestCounterVecLabelEscapeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("rt_test_total", "site", "round-trip test")
	hostile := []string{
		`plain`,
		`has"quote`,
		`back\slash`,
		`both"and\`,
		"new\nline",
		`trailing\`,
		`\"mixed\" up`,
	}
	for i, v := range hostile {
		vec.Add(v, uint64(i+1))
	}

	parsed := parsePromCounters(t, reg.PrometheusText())
	for i, v := range hostile {
		series := `rt_test_total{site=` + v + `}`
		got, ok := parsed[series]
		if !ok {
			t.Errorf("no sample round-tripped for label value %q (have %v)", v, parsed)
			continue
		}
		if want := fmt.Sprint(i + 1); got != want {
			t.Errorf("value for %q = %s, want %s", v, got, want)
		}
	}
	// Distinct hostile values must stay distinct series.
	if len(parsed) != len(hostile) {
		t.Errorf("parsed %d series, want %d: %v", len(parsed), len(hostile), parsed)
	}
}

// TestHelpEscapeRoundTrip pins HELP-line escaping: backslashes and
// newlines in help text must not break the line-oriented format.
func TestHelpEscapeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_help_total", "path C:\\tmp\nsecond line").Inc()
	text := reg.PrometheusText()
	want := `# HELP rt_help_total path C:\\tmp\nsecond line`
	if !strings.Contains(text, want+"\n") {
		t.Errorf("help line not escaped:\n%s", text)
	}
	// Every line must still parse (no raw newline smuggled through).
	parsePromCounters(t, text)
}

// TestRegistryCounters pins the snapshot form fleet workers ship:
// counters only, keyed by series name.
func TestRegistryCounters(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_c_total", "c").Add(7)
	reg.CounterVec("rt_v_total", "kind", "v").Add("x", 3)
	reg.GaugeFunc("rt_gf", "gf", func() int64 { return 1 })
	reg.Histogram("rt_h_ns", "h").Observe(5)

	got := reg.Counters()
	want := map[string]uint64{
		"rt_c_total":           7,
		`rt_v_total{kind="x"}`: 3,
	}
	if len(got) != len(want) {
		t.Fatalf("Counters() = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Counters()[%q] = %d, want %d", k, got[k], v)
		}
	}
	var nilReg *Registry
	if nilReg.Counters() != nil {
		t.Error("nil registry returned counters")
	}
}
