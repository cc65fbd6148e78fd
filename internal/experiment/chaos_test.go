package experiment

import (
	"bytes"
	"testing"

	"idio/internal/sim"
)

// quickChaosOpts shrinks the chaos run to CI size while keeping every
// mechanism engaged: all four fault layers, AQM, admission control,
// and retrying clients.
func quickChaosOpts() ChaosOpts {
	opts := DefaultChaosOpts()
	opts.RingSize = quickRing
	opts.MLCSize = quickMLC
	opts.LLCSize = quickLLC
	opts.Requests = 10000
	opts.Horizon = 25 * sim.Millisecond
	return opts
}

// renderChaos runs the timeline at the given parallelism and renders
// the table exactly as idiosim prints it.
func renderChaos(t *testing.T, parallelism int) []byte {
	t.Helper()
	opts := quickChaosOpts()
	opts.Parallelism = parallelism
	var buf bytes.Buffer
	if err := WriteTable(&buf, "chaos", ChaosHeader(), Rows(Chaos(opts))); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	return buf.Bytes()
}

// TestChaosRun checks the experiment's shape and the headline claims:
// one row per timeline segment plus a recovery row per policy, fault
// phases that visibly perturb (retries fire), graceful degradation
// (sheds counted, nothing aborted), and a finite time-to-recover.
func TestChaosRun(t *testing.T) {
	opts := quickChaosOpts()
	rows := Chaos(opts)
	segs := chaosSegments(opts.Timeline)
	if want := 2 * (len(segs) + 1); len(rows) != want {
		t.Fatalf("%d rows, want %d (2 policies x %d segments + recover)", len(rows), want, len(segs))
	}
	perPolicy := map[string][]ChaosRow{}
	for _, r := range rows {
		perPolicy[r.Policy.Name()] = append(perPolicy[r.Policy.Name()], r)
	}
	for pol, rs := range perPolicy {
		if rs[0].Phase != "pre" {
			t.Errorf("%s: first row is %q, want pre", pol, rs[0].Phase)
		}
		last := rs[len(rs)-1]
		if last.Phase != "recover" {
			t.Errorf("%s: last row is %q, want recover", pol, last.Phase)
		}
		if last.TTRUS < 0 {
			t.Errorf("%s: never recovered (TTR %v) after transient faults", pol, last.TTRUS)
		}
		var retries, sheds uint64
		for _, r := range rs {
			retries += r.Retries
			sheds += r.Sheds
			if r.Phase != "recover" && r.TTRUS != -1 {
				t.Errorf("%s %s: TTR %v set outside the recover row", pol, r.Phase, r.TTRUS)
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
		if rs[0].Retries != 0 {
			t.Errorf("%s: %d retries in the pre-fault baseline", pol, rs[0].Retries)
		}
	}
}

// TestChaosParallelismInvariance: the rendered chaos table is
// byte-identical whether the two policy cells run serially or fanned
// out — the -j1 vs -j8 determinism gate.
func TestChaosParallelismInvariance(t *testing.T) {
	serial := renderChaos(t, 1)
	fanned := renderChaos(t, 8)
	if !bytes.Equal(serial, fanned) {
		t.Fatalf("-j1 and -j8 chaos tables differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, fanned)
	}
}

// TestChaosSegmentLabels pins the segment-slicing logic: boundaries at
// every phase edge, "pre" before the first fault, "calm" gaps, and
// overlapping phases joined with "+".
func TestChaosSegmentLabels(t *testing.T) {
	tl := DefaultChaosOpts().Timeline
	segs := chaosSegments(tl)
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
