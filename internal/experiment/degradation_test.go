package experiment

import (
	"testing"
)

// degradationFaults is a degradation run's injected fault count.
func degradationFaults(r *run) uint64 { return r.res.Faults.Total() }

// TestDegradationSweep runs the reduced-size fault-rate sweep and
// checks the acceptance properties: >= 3 fault rates per policy, each
// producing drop/latency/writeback statistics, injected faults scale
// with the rate, and no run aborts or hangs.
func TestDegradationSweep(t *testing.T) {
	perBlock := map[string][]*run{}
	for _, r := range quickRuns(t, "degradation") {
		key := r.labels[0] + "/" + r.labels[1]
		perBlock[key] = append(perBlock[key], r)
	}
	// The fabric layer rides along with its own blocks: same
	// baseline-plus-rates shape, faults on the links instead of the
	// host.
	for _, layer := range []string{"host", "fabric"} {
		for _, pol := range []string{"DDIO", "IDIO"} {
			rs := perBlock[layer+"/"+pol]
			if len(rs) != 4 {
				t.Fatalf("%s/%s: %d rows, want baseline + 3 rates", layer, pol, len(rs))
			}
			base := rs[0]
			if base.labels[2] != "0.000" || degradationFaults(base) != 0 {
				t.Fatalf("%s/%s: first row is not a fault-free baseline: %v", layer, pol, base.labels)
			}
			for _, r := range rs {
				if r.ref != base {
					t.Errorf("%s/%s rate %s: wbInfl is not relative to the block's baseline", layer, pol, r.labels[2])
				}
				if r.res.Aborted != nil {
					t.Errorf("%s/%s rate %s aborted", layer, pol, r.labels[2])
				}
				if processed(r) == 0 {
					t.Errorf("%s/%s rate %s processed nothing", layer, pol, r.labels[2])
				}
				if r != base && degradationFaults(r) == 0 {
					t.Errorf("%s/%s rate %s injected nothing", layer, pol, r.labels[2])
				}
			}
		}
	}
	for _, pol := range []string{"DDIO", "IDIO"} {
		rs := perBlock["host/"+pol]
		var prevInjected uint64
		for _, r := range rs[1:] {
			if degradationFaults(r) < prevInjected {
				t.Errorf("%s rate %s injected %d, less than lower rate's %d",
					pol, r.labels[2], degradationFaults(r), prevInjected)
			}
			prevInjected = degradationFaults(r)
			if v := norm(mlcWB)(r); v <= 0 {
				t.Errorf("%s rate %s: bad WB inflation %f", pol, r.labels[2], v)
			}
		}
		// The highest rate corrupts 5% of TLPs: damage must be visible
		// in at least one loss channel (drops or degraded mis-steers).
		worst := rs[len(rs)-1]
		if worst.res.NIC.MisSteers+uint64(nicFabricDrops(worst)) == 0 && worst.res.CtrlMisSteers == 0 {
			t.Errorf("%s at rate %s recorded no drops or mis-steers", pol, worst.labels[2])
		}
	}
}

// TestDegradationDeterminism: the sweep itself is reproducible, at any
// parallelism.
func TestDegradationDeterminism(t *testing.T) { checkParallelism(t, "degradation") }
