package experiment

import (
	"bytes"
	"testing"

	fnet "idio/internal/net"
	"idio/internal/sim"
)

// quickRPCOpts shrinks the sweep to CI size.
func quickRPCOpts() RPCOpts {
	opts := DefaultRPCOpts()
	opts.RingSize = quickRing
	opts.MLCSize = quickMLC
	opts.LLCSize = quickLLC
	opts.Requests = 256
	opts.LoadsGbps = []float64{5, 25}
	opts.Windows = []int{1, 16}
	return opts
}

// renderRPC runs the sweep at the given parallelism and renders the
// table exactly as idiosim prints it.
func renderRPC(t *testing.T, parallelism int) []byte {
	t.Helper()
	opts := quickRPCOpts()
	opts.Parallelism = parallelism
	var buf bytes.Buffer
	if err := WriteTable(&buf, "rpc", RPCHeader(), Rows(RPC(opts))); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	return buf.Bytes()
}

// TestRPCSweep checks the sweep's shape and sanity: both policies,
// every load and window point, complete request budgets, and latency
// that grows with the closed-loop window.
func TestRPCSweep(t *testing.T) {
	opts := quickRPCOpts()
	rows := RPC(opts)
	perPoint := len(opts.LoadsGbps) + len(opts.Windows)
	if len(rows) != 2*perPoint {
		t.Fatalf("%d rows, want %d (2 policies x %d points)", len(rows), 2*perPoint, perPoint)
	}
	byWindow := map[int]RPCRow{}
	for _, r := range rows {
		if r.Aborted {
			t.Errorf("%s %s cell aborted", r.Policy.Name(), r.Mode)
		}
		if want := opts.Requests * uint64(opts.Clients); r.Issued != want {
			t.Errorf("%s %s: issued %d, want %d", r.Policy.Name(), r.Mode, r.Issued, want)
		}
		if r.Responses == 0 || r.GoodputGbps <= 0 || r.P50US <= 0 {
			t.Errorf("degenerate cell: %+v", r)
		}
		if r.P50US > r.P99US || r.P99US > r.P999US {
			t.Errorf("%s %s: unordered percentiles p50=%v p99=%v p999=%v",
				r.Policy.Name(), r.Mode, r.P50US, r.P99US, r.P999US)
		}
		if r.Mode == fnet.ModeClosed && r.Policy.Name() == "IDIO" {
			byWindow[r.Window] = r
		}
	}
	// A deeper closed-loop window queues more at the DUT: higher
	// goodput, higher p99.
	w1, w16 := byWindow[1], byWindow[16]
	if w16.GoodputGbps <= w1.GoodputGbps {
		t.Errorf("window 16 goodput %.2f not above window 1's %.2f", w16.GoodputGbps, w1.GoodputGbps)
	}
	if w16.P99US <= w1.P99US {
		t.Errorf("window 16 p99 %.2f not above window 1's %.2f", w16.P99US, w1.P99US)
	}
}

// TestRPCParallelismInvariance: the rendered table is byte-identical
// whether cells run serially or fanned out over 8 workers.
func TestRPCParallelismInvariance(t *testing.T) {
	serial := renderRPC(t, 1)
	fanned := renderRPC(t, 8)
	if !bytes.Equal(serial, fanned) {
		t.Fatalf("-j1 and -j8 tables differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, fanned)
	}
}

// TestRPCTimeoutBound: a sweep with a tight timeout still terminates
// (no stuck windows) within the horizon.
func TestRPCTimeoutBound(t *testing.T) {
	opts := quickRPCOpts()
	opts.LoadsGbps = nil
	opts.Windows = []int{64}
	opts.Timeout = 50 * sim.Microsecond
	for _, r := range RPC(opts) {
		if r.Aborted {
			t.Errorf("%s aborted under tight timeout", r.Policy.Name())
		}
		if r.Issued != opts.Requests*uint64(opts.Clients) {
			t.Errorf("%s: issued %d, want full budget", r.Policy.Name(), r.Issued)
		}
	}
}
