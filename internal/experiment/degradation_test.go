package experiment

import (
	"testing"

	idiocore "idio/internal/core"
)

// TestDegradationSweep runs the reduced-size fault-rate sweep and
// checks the acceptance properties: >= 3 fault rates per policy, each
// producing drop/latency/writeback statistics, injected faults scale
// with the rate, and no run aborts or hangs.
func TestDegradationSweep(t *testing.T) {
	opts := DefaultDegradationOpts()
	opts.RingSize = quickRing
	opts.MLCSize = quickMLC
	opts.LLCSize = quickLLC
	rows := Degradation(opts)

	perBlock := map[string][]DegradationRow{}
	for _, r := range rows {
		key := r.Layer + "/" + r.Policy.Name()
		perBlock[key] = append(perBlock[key], r)
	}
	// The fabric layer rides along with its own blocks: same
	// baseline-plus-rates shape, faults on the links instead of the
	// host.
	for _, layer := range []string{"host", "fabric"} {
		for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
			rs := perBlock[layer+"/"+pol.Name()]
			if len(rs) != 1+len(opts.Rates) {
				t.Fatalf("%s/%s: %d rows, want baseline + %d rates", layer, pol.Name(), len(rs), len(opts.Rates))
			}
			base := rs[0]
			if base.Rate != 0 || base.FaultsInjected != 0 {
				t.Fatalf("%s/%s: first row is not a fault-free baseline: %+v", layer, pol.Name(), base)
			}
			for _, r := range rs {
				if r.Aborted {
					t.Errorf("%s/%s rate %.3f aborted", layer, pol.Name(), r.Rate)
				}
				if r.Processed == 0 {
					t.Errorf("%s/%s rate %.3f processed nothing", layer, pol.Name(), r.Rate)
				}
				if r.Rate > 0 && r.FaultsInjected == 0 {
					t.Errorf("%s/%s rate %.3f injected nothing", layer, pol.Name(), r.Rate)
				}
			}
		}
	}
	for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
		rs := perBlock["host/"+pol.Name()]
		base := rs[0]
		if base.Rate != 0 || base.FaultsInjected != 0 {
			t.Fatalf("%s: first row is not a fault-free baseline: %+v", pol.Name(), base)
		}
		if base.Processed == 0 {
			t.Fatalf("%s baseline processed nothing", pol.Name())
		}
		var prevInjected uint64
		for _, r := range rs[1:] {
			if r.Aborted {
				t.Errorf("%s rate %.3f aborted", pol.Name(), r.Rate)
			}
			if r.FaultsInjected == 0 {
				t.Errorf("%s rate %.3f injected nothing", pol.Name(), r.Rate)
			}
			if r.FaultsInjected < prevInjected {
				t.Errorf("%s rate %.3f injected %d, less than lower rate's %d",
					pol.Name(), r.Rate, r.FaultsInjected, prevInjected)
			}
			prevInjected = r.FaultsInjected
			if r.Processed == 0 {
				t.Errorf("%s rate %.3f processed nothing: faults must degrade, not wedge", pol.Name(), r.Rate)
			}
			if r.WBInflation <= 0 {
				t.Errorf("%s rate %.3f: bad WB inflation %f", pol.Name(), r.Rate, r.WBInflation)
			}
		}
		// The highest rate corrupts 5% of TLPs: damage must be visible
		// in at least one loss channel (drops or degraded mis-steers).
		worst := rs[len(rs)-1]
		if worst.Drops == 0 && worst.MisSteers == 0 {
			t.Errorf("%s at rate %.3f recorded no drops or mis-steers", pol.Name(), worst.Rate)
		}
	}
}

// TestDegradationDeterminism: the sweep itself is reproducible.
func TestDegradationDeterminism(t *testing.T) {
	opts := DefaultDegradationOpts()
	opts.RingSize = 128
	opts.MLCSize = quickMLC
	opts.LLCSize = quickLLC
	opts.Rates = []float64{0.02}
	a := Degradation(opts)
	b := Degradation(opts)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverged:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
