package experiment

import (
	"testing"

	"idio/internal/sim"
)

// TestRPCSweep checks the sweep's shape and sanity: both policies,
// every load and window point, complete request budgets, and latency
// that grows with the closed-loop window.
func TestRPCSweep(t *testing.T) {
	runs := quickRuns(t, "rpc")
	if len(runs) != 2*5 {
		t.Fatalf("%d rows, want 2 policies x 5 points", len(runs))
	}
	for _, r := range runs {
		c := rpcClients(r)
		if r.res.Aborted != nil {
			t.Errorf("%v cell aborted", r.labels)
		}
		if want := uint64(512 * 4); c.issued != want {
			t.Errorf("%v: issued %d, want %d", r.labels, c.issued, want)
		}
		if c.resp == 0 || c.goodputBps <= 0 || c.p50 <= 0 {
			t.Errorf("degenerate cell %v: %+v", r.labels, c)
		}
		if c.p50 > c.p99 || c.p99 > c.p999 {
			t.Errorf("%v: unordered percentiles p50=%v p99=%v p999=%v", r.labels, c.p50, c.p99, c.p999)
		}
	}
	// A deeper closed-loop window queues more at the DUT: higher
	// goodput, higher p99.
	w1, w16 := rpcClients(quickRun(t, "rpc", "IDIO", "closed", "w=1")), rpcClients(quickRun(t, "rpc", "IDIO", "closed", "w=16"))
	if w16.goodputBps <= w1.goodputBps {
		t.Errorf("window 16 goodput %.2f not above window 1's %.2f", w16.goodputBps/1e9, w1.goodputBps/1e9)
	}
	if w16.p99 <= w1.p99 {
		t.Errorf("window 16 p99 %v not above window 1's %v", w16.p99, w1.p99)
	}
}

// TestRPCParallelismInvariance: the rendered table is byte-identical
// whether cells run serially or fanned out over 8 workers.
func TestRPCParallelismInvariance(t *testing.T) { checkParallelism(t, "rpc") }

// TestRPCTimeoutBound: a sweep with a tight timeout still terminates
// (no stuck windows) within the horizon.
func TestRPCTimeoutBound(t *testing.T) {
	base := rpcBase(quickGeometry, 256)
	for i := range base.RPC {
		base.RPC[i].Timeout = 50 * sim.Microsecond
	}
	for _, r := range execute(0, rpcCells(base, quickGeometry, nil, []int{64})) {
		if r.res.Aborted != nil {
			t.Errorf("%v aborted under tight timeout", r.labels)
		}
		if c := rpcClients(r); c.issued != 256*4 {
			t.Errorf("%v: issued %d, want full budget", r.labels, c.issued)
		}
	}
}
