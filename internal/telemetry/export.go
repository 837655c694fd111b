// Exporters: the Prometheus text exposition format (for /metrics and
// scrape-based monitoring) and a JSON snapshot (for /debug/vars and
// programmatic inspection). Export walks a sorted copy of the
// registry, so output order is deterministic for a fixed metric set.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Metrics sharing a name (labelled
// families) emit one HELP/TYPE header followed by every series, and
// histograms render cumulative le-bounded buckets plus _sum and
// _count, as the format requires. A nil registry renders nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var lastName string
	for _, m := range r.snapshot() {
		if m.name != lastName {
			lastName = m.name
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, escapeHelp(m.help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, promType(m.kind)); err != nil {
				return err
			}
		}
		if err := writePromMetric(w, m); err != nil {
			return err
		}
	}
	return nil
}

// escapeHelp escapes a HELP line per the 0.0.4 exposition rules:
// backslash and newline (the only characters the format escapes in
// help text — double quotes stay literal here, unlike label values).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func promType(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	}
	return "gauge"
}

// series renders `name{labels}` (or just `name`), with extraLabels
// appended inside the braces when non-empty.
func series(name, labels, extraLabels string) string {
	all := labels
	if extraLabels != "" {
		if all != "" {
			all += ","
		}
		all += extraLabels
	}
	if all == "" {
		return name
	}
	return name + "{" + all + "}"
}

func writePromMetric(w io.Writer, m *metric) error {
	switch m.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", series(m.name, m.labels, ""), m.c.Value())
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s %d\n", series(m.name, m.labels, ""), m.gf())
		return err
	case kindHistogram:
		s := m.h.read()
		var cum uint64
		for i := 0; i < numHistBuckets; i++ {
			cum += s.buckets[i]
			if _, err := fmt.Fprintf(w, "%s %d\n",
				series(m.name+"_bucket", m.labels, fmt.Sprintf(`le="%d"`, bucketBound(i))), cum); err != nil {
				return err
			}
		}
		cum += s.overflow
		if _, err := fmt.Fprintf(w, "%s %d\n", series(m.name+"_bucket", m.labels, `le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", series(m.name+"_sum", m.labels, ""), s.sum); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", series(m.name+"_count", m.labels, ""), s.count)
		return err
	}
	return nil
}

// PrometheusText renders the registry to a string (see WritePrometheus).
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	r.WritePrometheus(&b) // strings.Builder writes cannot fail
	return b.String()
}

// HistogramJSON is a histogram's JSON-snapshot form.
type HistogramJSON struct {
	Count   uint64            `json:"count"`
	SumNs   uint64            `json:"sum_ns"`
	Buckets map[string]uint64 `json:"buckets,omitempty"` // le-bound -> cumulative count
}

// Snapshot returns every metric's current value keyed by its series
// name (`name` or `name{labels}`). Counters and gauges map to numbers,
// histograms to HistogramJSON. A nil registry returns an empty map.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, m := range r.snapshot() {
		key := series(m.name, m.labels, "")
		switch m.kind {
		case kindCounter:
			out[key] = m.c.Value()
		case kindGaugeFunc:
			out[key] = m.gf()
		case kindHistogram:
			s := m.h.read()
			hj := HistogramJSON{Count: s.count, SumNs: s.sum, Buckets: make(map[string]uint64)}
			var cum uint64
			for i := 0; i < numHistBuckets; i++ {
				cum += s.buckets[i]
				if s.buckets[i] != 0 {
					hj.Buckets[fmt.Sprint(bucketBound(i))] = cum
				}
			}
			if s.overflow != 0 {
				hj.Buckets["+Inf"] = cum + s.overflow
			}
			out[key] = hj
		}
	}
	return out
}

// WriteJSON renders the Snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
