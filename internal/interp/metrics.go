// Execution telemetry: optional counters an Interpreter feeds as it
// runs. The instrumentation points are per-run, never per-op — a run
// increments a run counter and adds the steps it consumed, both single
// atomic adds — so an enabled registry costs the same allocations as a
// disabled one on the interpret hot path (the alloc guard in
// telemetry_test.go pins both at equal).
package interp

import (
	"ratte/internal/telemetry"
)

// Metrics is the set of execution counters an Interpreter reports
// into. Any field may be nil (nil instruments are no-ops), and a nil
// *Metrics disables reporting entirely — the interpreter then pays one
// nil check per Run.
type Metrics struct {
	// Runs counts completed evaluations.
	Runs *telemetry.Counter
	// Steps accumulates operations evaluated across all runs.
	Steps *telemetry.Counter
}

// NewMetrics builds interpreter metrics registered under the standard
// series names. A nil registry yields nil (reporting disabled).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Runs:  reg.Counter("ratte_interp_runs_total", "completed module evaluations"),
		Steps: reg.Counter("ratte_interp_steps_total", "operations evaluated"),
	}
}

// noteRun records one completed evaluation that consumed the given
// number of steps.
func (m *Metrics) noteRun(steps int) {
	if m == nil {
		return
	}
	m.Runs.Inc()
	if steps > 0 {
		m.Steps.Add(uint64(steps))
	}
}
