package experiment

import (
	"testing"

	"idio/internal/sim"
)

func TestBreakdownStages(t *testing.T) {
	opts := BreakdownOpts{
		Geometry: quickGeometry, RateGbps: 25, Horizon: 9 * sim.Millisecond,
	}
	rows := Breakdown(opts)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	ddio, idio := rows[0], rows[1]
	if ddio.Policy != "DDIO" || idio.Policy != "IDIO" {
		t.Fatalf("row order: %s, %s", ddio.Policy, idio.Policy)
	}
	// The notification stage is policy-independent (descriptor
	// coalescing happens on the NIC).
	if diff := ddio.NotifyP50US - idio.NotifyP50US; diff > 0.5 || diff < -0.5 {
		t.Errorf("notify p50 should match: %.2f vs %.2f", ddio.NotifyP50US, idio.NotifyP50US)
	}
	// IDIO's service time shrinks (MLC hits) ...
	if idio.ServP50US >= ddio.ServP50US {
		t.Errorf("IDIO service p50 %.2f !< DDIO %.2f", idio.ServP50US, ddio.ServP50US)
	}
	// ... and that collapses the queueing tail.
	if idio.QueueP99US >= ddio.QueueP99US {
		t.Errorf("IDIO queue p99 %.2f !< DDIO %.2f", idio.QueueP99US, ddio.QueueP99US)
	}
	if idio.TotalP99US >= ddio.TotalP99US {
		t.Errorf("IDIO total p99 %.2f !< DDIO %.2f", idio.TotalP99US, ddio.TotalP99US)
	}
	// Sanity: stages are positive and queueing dominates the total p99
	// in the backlogged regime.
	for _, r := range rows {
		if r.ServP50US <= 0 || r.NotifyP50US <= 0 {
			t.Errorf("%s: non-positive stage: %+v", r.Policy, r)
		}
		if r.QueueP99US > r.TotalP99US {
			t.Errorf("%s: queue p99 exceeds total", r.Policy)
		}
	}
}
