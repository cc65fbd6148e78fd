package experiment

import (
	"fmt"
	"testing"
)

// ablation returns the -quick ablation run labelled param and value.
func ablation(t *testing.T, param string, value any) *run {
	t.Helper()
	return quickRun(t, "ablations", param, fmt.Sprint(value))
}

func TestAblationDDIOWays(t *testing.T) {
	// 25 Gbps: the rate where prefetch+invalidate fully absorb inbound
	// data, so IDIO's way-count insensitivity is unambiguous (at
	// 100 Gbps a single-way ingress bottleneck leaks under any policy).
	// Under the DDIO baseline, more DDIO ways means fewer DMA leaks
	// (monotone non-increasing LLC writebacks across 1 -> 4 ways).
	if one, four := ablation(t, "ddioWays/DDIO", 1), ablation(t, "ddioWays/DDIO", 4); llcWB(one) < llcWB(four) {
		t.Errorf("baseline: 1-way leaks %.0f < 4-way %.0f", llcWB(one), llcWB(four))
	}
	// IDIO removes the pressure to cede LLC ways to I/O: at every way
	// count its leaks stay well below the baseline's at the same count.
	for _, w := range []int{1, 2, 4} {
		base, idio := ablation(t, "ddioWays/DDIO", w), ablation(t, "ddioWays/IDIO", w)
		if llcWB(idio)*2 > llcWB(base) {
			t.Errorf("ways=%d: IDIO LLC WB %.0f not << baseline %.0f", w, llcWB(idio), llcWB(base))
		}
	}
}

func TestAblationRingSize(t *testing.T) {
	// Observation 2: under DDIO the large ring writes back far more
	// than the small one.
	small, large := ablation(t, "ring/DDIO", 64), ablation(t, "ring/DDIO", 256)
	if mlcWB(large) <= mlcWB(small) {
		t.Errorf("DDIO ring 256 MLC WB %.0f !> ring 64 %.0f", mlcWB(large), mlcWB(small))
	}
	// IDIO flattens the ring-size sensitivity.
	if idio := ablation(t, "ring/IDIO", 256); mlcWB(idio) > mlcWB(large)/4 {
		t.Errorf("IDIO ring 256 MLC WB %.0f not << DDIO %.0f", mlcWB(idio), mlcWB(large))
	}
}

func TestAblationPrefetchDepth(t *testing.T) {
	for _, d := range []int{4, 32, 128} {
		if rxDrops(ablation(t, "pfDepth", d)) != 0 {
			t.Errorf("depth %d dropped packets", d)
		}
	}
	// A deeper queue can only help (or tie) exe time at this rate.
	if shallow, deep := ablation(t, "pfDepth", 4), ablation(t, "pfDepth", 128); exeUS(deep) > exeUS(shallow)*1.05 {
		t.Errorf("depth 128 exe %.0f worse than depth 4 %.0f", exeUS(deep), exeUS(shallow))
	}
}

func TestAblationDescCoalescing(t *testing.T) {
	// Longer coalescing delays visibility and therefore stretches p99.
	if lag, now := ablation(t, "descWB", "20.0us"), ablation(t, "descWB", "0.0us"); p99US(lag) <= p99US(now) {
		t.Errorf("20us coalescing p99 %.1f !> immediate %.1f", p99US(lag), p99US(now))
	}
}

func TestAblationMLPCompressesExeGap(t *testing.T) {
	ddio1, ddio8 := ablation(t, "mshrs/DDIO", 1), ablation(t, "mshrs/DDIO", 8)
	idio1, idio8 := ablation(t, "mshrs/IDIO", 1), ablation(t, "mshrs/IDIO", 8)
	gapSerial := exeUS(ddio1) - exeUS(idio1)
	gapMLP := exeUS(ddio8) - exeUS(idio8)
	if gapSerial <= 0 {
		t.Fatalf("IDIO must beat DDIO at MSHRs=1: ddio=%.0f idio=%.0f", exeUS(ddio1), exeUS(idio1))
	}
	// Overlap hides memory latency, so the absolute exe-time gap
	// shrinks — the deviation-1 mechanism from EXPERIMENTS.md.
	if gapMLP >= gapSerial {
		t.Errorf("MLP should compress the exe gap: serial %.0fus, mlp8 %.0fus", gapSerial, gapMLP)
	}
	// And MLP speeds everything up outright.
	if exeUS(ddio8) >= exeUS(ddio1) {
		t.Errorf("DDIO with MSHRs must be faster: %.0f vs %.0f", exeUS(ddio8), exeUS(ddio1))
	}
}

func TestAblationReplacement(t *testing.T) {
	// IDIO's advantage must hold under both replacement policies: its
	// writebacks stay far below the baseline's regardless of policy.
	for _, repl := range []string{"lru", "srrip"} {
		ddio, idio := ablation(t, "repl/DDIO", repl), ablation(t, "repl/IDIO", repl)
		if mlcWB(idio)*4 > mlcWB(ddio) {
			t.Errorf("%s: IDIO MLC WB %.0f not << DDIO %.0f", repl, mlcWB(idio), mlcWB(ddio))
		}
		if rxDrops(ddio) != 0 || rxDrops(idio) != 0 {
			t.Errorf("%s: drops", repl)
		}
	}
}

func TestAblationInclusion(t *testing.T) {
	// IDIO's benefit must hold under both inclusion behaviours.
	for _, mode := range []string{"exclusive", "nine"} {
		ddio, idio := ablation(t, "inclusion/DDIO", mode), ablation(t, "inclusion/IDIO", mode)
		if mlcWB(idio)*4 > mlcWB(ddio) {
			t.Errorf("%s: IDIO MLC WB %.0f not << DDIO %.0f", mode, mlcWB(idio), mlcWB(ddio))
		}
		if rxDrops(ddio) != 0 || rxDrops(idio) != 0 {
			t.Errorf("%s: drops", mode)
		}
	}
}

func TestAblationFrameSize(t *testing.T) {
	sizes := []string{"128B", "512B", "1514B"}
	var ddio, idio [3]*run
	for i, fs := range sizes {
		ddio[i], idio[i] = ablation(t, "frame/DDIO", fs), ablation(t, "frame/IDIO", fs)
	}
	// DDIO's writeback volume grows with frame size (more payload
	// lines per packet to consume and evict).
	if !(mlcWB(ddio[0]) <= mlcWB(ddio[1]) && mlcWB(ddio[1]) <= mlcWB(ddio[2])) {
		t.Errorf("DDIO MLC WB must grow with frame size: %.0f %.0f %.0f", mlcWB(ddio[0]), mlcWB(ddio[1]), mlcWB(ddio[2]))
	}
	// LLC-leak elimination holds at every size; the MLC-writeback
	// benefit is size-dependent (at tiny frames descriptor churn makes
	// IDIO's MLC traffic comparable to DDIO's) and complete at MTU.
	for i, fs := range sizes {
		if llcWB(idio[i])*4 > llcWB(ddio[i]) {
			t.Errorf("%s: IDIO LLC WB %.0f not << DDIO %.0f", fs, llcWB(idio[i]), llcWB(ddio[i]))
		}
	}
	if mlcWB(idio[2])*10 > mlcWB(ddio[2]) {
		t.Errorf("MTU: IDIO MLC WB %.0f not << DDIO %.0f", mlcWB(idio[2]), mlcWB(ddio[2]))
	}
	// The absolute IDIO-vs-DDIO exe gap widens with frame size
	// (payload orchestration pays off as payloads grow).
	gapSmall := exeUS(ddio[0]) - exeUS(idio[0])
	gapMTU := exeUS(ddio[2]) - exeUS(idio[2])
	if gapMTU <= gapSmall {
		t.Errorf("exe gap must widen with frames: %.0f (128B) vs %.0f (MTU)", gapSmall, gapMTU)
	}
}

func TestAblationAdaptivePrefetch(t *testing.T) {
	none, fsm, adaptive := ablation(t, "pfRegulator", "none"), ablation(t, "pfRegulator", "fsm"), ablation(t, "pfRegulator", "adaptive")
	// Any regulator must not lose packets.
	if rxDrops(none) != 0 || rxDrops(fsm) != 0 || rxDrops(adaptive) != 0 {
		t.Error("no drops expected")
	}
	// The adaptive throttle regulates MLC pressure at least as well
	// as the unregulated Static prefetcher (the paper predicts "more
	// benefit" from following the CPU's consumption).
	if mlcWB(adaptive) > mlcWB(none) {
		t.Errorf("adaptive MLC WB %.0f !<= unregulated %.0f", mlcWB(adaptive), mlcWB(none))
	}
}
