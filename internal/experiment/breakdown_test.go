package experiment

import "testing"

func TestBreakdownStages(t *testing.T) {
	runs := quickRuns(t, "breakdown")
	if len(runs) != 2 || runs[0].labels[0] != "DDIO" || runs[1].labels[0] != "IDIO" {
		t.Fatalf("rows: %d", len(runs))
	}
	ddio, idio := runs[0].probe.(*stageSink), runs[1].probe.(*stageSink)
	us := func(s *stageSink) (notify50, queue50, serv50, queue99, serv99, total99 float64) {
		return s.notify.P50().Microseconds(), s.queue.P50().Microseconds(), s.serv.P50().Microseconds(),
			s.queue.P99().Microseconds(), s.serv.P99().Microseconds(), s.total.P99().Microseconds()
	}
	dN, _, dS, dQ99, _, dT99 := us(ddio)
	iN, _, iS, iQ99, _, iT99 := us(idio)
	// The notification stage is policy-independent (descriptor
	// coalescing happens on the NIC).
	if diff := dN - iN; diff > 0.5 || diff < -0.5 {
		t.Errorf("notify p50 should match: %.2f vs %.2f", dN, iN)
	}
	// IDIO's service time shrinks (MLC hits) ...
	if iS >= dS {
		t.Errorf("IDIO service p50 %.2f !< DDIO %.2f", iS, dS)
	}
	// ... and that collapses the queueing tail.
	if iQ99 >= dQ99 {
		t.Errorf("IDIO queue p99 %.2f !< DDIO %.2f", iQ99, dQ99)
	}
	if iT99 >= dT99 {
		t.Errorf("IDIO total p99 %.2f !< DDIO %.2f", iT99, dT99)
	}
	// Sanity: stages are positive and queueing dominates the total p99
	// in the backlogged regime.
	for _, r := range runs {
		n, _, s, q99, _, t99 := us(r.probe.(*stageSink))
		if s <= 0 || n <= 0 {
			t.Errorf("%s: non-positive stage: notify %.2f, service %.2f", r.labels[0], n, s)
		}
		if q99 > t99 {
			t.Errorf("%s: queue p99 exceeds total", r.labels[0])
		}
	}
}
