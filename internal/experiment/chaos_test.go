package experiment

import (
	"testing"

	"idio/internal/sim"
)

// TestChaosRun checks the experiment's shape and the headline claims:
// one row per timeline segment plus a recovery row per policy, fault
// phases that visibly perturb (retries fire), graceful degradation
// (sheds counted, nothing aborted), and a finite time-to-recover.
func TestChaosRun(t *testing.T) {
	runs := quickRuns(t, "chaos")
	segs := chaosSegments(chaosTimeline)
	if len(runs) != 2 {
		t.Fatalf("%d runs, want one per policy", len(runs))
	}
	for _, r := range runs {
		pol := r.labels[0]
		if r.res.Aborted != nil {
			t.Errorf("%s aborted: %v", pol, r.res.Aborted)
		}
		parts := chaosTable.parts(r)
		if len(parts) != len(segs)+1 {
			t.Fatalf("%s: %d rows, want %d segments + recover", pol, len(parts), len(segs))
		}
		rs := make([]chaosPhase, len(parts))
		for i, p := range parts {
			rs[i] = p.(chaosPhase)
		}
		if rs[0].label != "pre" {
			t.Errorf("%s: first row is %q, want pre", pol, rs[0].label)
		}
		last := rs[len(rs)-1]
		if last.label != "recover" {
			t.Errorf("%s: last row is %q, want recover", pol, last.label)
		}
		if last.ttrUS < 0 {
			t.Errorf("%s: never recovered (TTR %v) after transient faults", pol, last.ttrUS)
		}
		var retries, sheds uint64
		for _, p := range rs {
			retries += p.cur.retries - p.prev.retries
			sheds += p.cur.sheds - p.prev.sheds
			if p.label != "recover" && p.ttrUS != -1 {
				t.Errorf("%s %s: TTR %v set outside the recover row", pol, p.label, p.ttrUS)
			}
		}
		if retries == 0 {
			t.Errorf("%s: timeline never provoked a retry", pol)
		}
		if sheds == 0 {
			t.Errorf("%s: AQM/admission never shed under the timeline", pol)
		}
		// The pre-fault baseline must be calm: no retries before the
		// first phase.
		if rs[0].cur.retries != 0 {
			t.Errorf("%s: %d retries in the pre-fault baseline", pol, rs[0].cur.retries)
		}
	}
}

// TestChaosParallelismInvariance: the rendered chaos table is
// byte-identical whether the two policy cells run serially or fanned
// out — the -j1 vs -j8 determinism gate.
func TestChaosParallelismInvariance(t *testing.T) { checkParallelism(t, "chaos") }

// TestChaosSegmentLabels pins the segment-slicing logic: boundaries at
// every phase edge, "pre" before the first fault, "calm" gaps, and
// overlapping phases joined with "+".
func TestChaosSegmentLabels(t *testing.T) {
	segs := chaosSegments(chaosTimeline)
	labels := make([]string, len(segs))
	for i, s := range segs {
		labels[i] = s.label
	}
	want := []string{"pre", "fabric/degrade", "calm", "nic/dma-stall", "calm", "dram/spike", "calm", "core/stall"}
	if len(labels) != len(want) {
		t.Fatalf("labels %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("segment %d labelled %q, want %q (%v)", i, labels[i], want[i], labels)
		}
	}
	if segs[0].start != 0 || segs[len(segs)-1].end != sim.Time(5300*sim.Microsecond) {
		t.Fatalf("segment span [%v, %v], want [0, 5.3ms]", segs[0].start, segs[len(segs)-1].end)
	}
}
