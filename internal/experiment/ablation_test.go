package experiment

import (
	"testing"

	"idio/internal/sim"
)

func smallAblationOpts(rate float64) AblationOpts {
	return AblationOpts{
		Geometry: quickGeometry, RateGbps: rate, Horizon: 9 * sim.Millisecond,
	}
}

func TestAblationDDIOWays(t *testing.T) {
	// 25 Gbps: the rate where prefetch+invalidate fully absorb inbound
	// data, so IDIO's way-count insensitivity is unambiguous (at
	// 100 Gbps a single-way ingress bottleneck leaks under any policy).
	rows := AblationDDIOWays(smallAblationOpts(25), []int{1, 2, 4})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Under the DDIO baseline, more DDIO ways means fewer DMA leaks
	// (monotone non-increasing LLC writebacks across 1 -> 4 ways).
	if rows[0].LLCWB < rows[2].LLCWB {
		t.Errorf("baseline: 1-way leaks %d < 4-way %d", rows[0].LLCWB, rows[2].LLCWB)
	}
	// IDIO removes the pressure to cede LLC ways to I/O: at every way
	// count its leaks stay well below the baseline's at the same count.
	for i := 0; i < 3; i++ {
		base, idio := rows[i], rows[i+3]
		if idio.LLCWB*2 > base.LLCWB {
			t.Errorf("ways=%s: IDIO LLC WB %d not << baseline %d", base.Value, idio.LLCWB, base.LLCWB)
		}
	}
}

func TestAblationRingSize(t *testing.T) {
	rows := AblationRingSize(smallAblationOpts(25), []int{64, 256})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Observation 2: under DDIO the large ring writes back far more
	// than the small one.
	if rows[1].MLCWB <= rows[0].MLCWB {
		t.Errorf("DDIO ring 256 MLC WB %d !> ring 64 %d", rows[1].MLCWB, rows[0].MLCWB)
	}
	// IDIO flattens the ring-size sensitivity.
	if rows[3].MLCWB > rows[1].MLCWB/4 {
		t.Errorf("IDIO ring 256 MLC WB %d not << DDIO %d", rows[3].MLCWB, rows[1].MLCWB)
	}
}

func TestAblationPrefetchDepth(t *testing.T) {
	rows := AblationPrefetchDepth(smallAblationOpts(25), []int{4, 32, 128})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Drops != 0 {
			t.Errorf("depth %s dropped packets", r.Value)
		}
	}
	// A deeper queue can only help (or tie) exe time at this rate.
	if rows[2].ExeTimeUS > rows[0].ExeTimeUS*1.05 {
		t.Errorf("depth 128 exe %.0f worse than depth 4 %.0f", rows[2].ExeTimeUS, rows[0].ExeTimeUS)
	}
}

func TestAblationDescCoalescing(t *testing.T) {
	rows := AblationDescCoalescing(smallAblationOpts(25),
		[]sim.Duration{0, 1900 * sim.Nanosecond, 20 * sim.Microsecond})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Longer coalescing delays visibility and therefore stretches p99.
	if rows[2].P99US <= rows[0].P99US {
		t.Errorf("20us coalescing p99 %.1f !> immediate %.1f", rows[2].P99US, rows[0].P99US)
	}
}

func TestAblationMLPCompressesExeGap(t *testing.T) {
	rows := AblationMLP(smallAblationOpts(100), []int{1, 8})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// rows: ddio@1, ddio@8, idio@1, idio@8.
	gapSerial := rows[0].ExeTimeUS - rows[2].ExeTimeUS
	gapMLP := rows[1].ExeTimeUS - rows[3].ExeTimeUS
	if gapSerial <= 0 {
		t.Fatalf("IDIO must beat DDIO at MSHRs=1: ddio=%.0f idio=%.0f", rows[0].ExeTimeUS, rows[2].ExeTimeUS)
	}
	// Overlap hides memory latency, so the absolute exe-time gap
	// shrinks — the deviation-1 mechanism from EXPERIMENTS.md.
	if gapMLP >= gapSerial {
		t.Errorf("MLP should compress the exe gap: serial %.0fus, mlp8 %.0fus", gapSerial, gapMLP)
	}
	// And MLP speeds everything up outright.
	if rows[1].ExeTimeUS >= rows[0].ExeTimeUS {
		t.Errorf("DDIO with MSHRs must be faster: %.0f vs %.0f", rows[1].ExeTimeUS, rows[0].ExeTimeUS)
	}
}

func TestAblationReplacement(t *testing.T) {
	rows := AblationReplacement(smallAblationOpts(25))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// IDIO's advantage must hold under both replacement policies: its
	// writebacks stay far below the baseline's regardless of policy.
	for i := 0; i < 2; i++ {
		ddio, idio := rows[i], rows[i+2]
		if idio.MLCWB*4 > ddio.MLCWB {
			t.Errorf("%s: IDIO MLC WB %d not << DDIO %d", ddio.Value, idio.MLCWB, ddio.MLCWB)
		}
	}
	for _, r := range rows {
		if r.Drops != 0 {
			t.Errorf("%s/%s dropped packets", r.Param, r.Value)
		}
	}
}

func TestAblationInclusion(t *testing.T) {
	rows := AblationInclusion(smallAblationOpts(25))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// IDIO's benefit must hold under both inclusion behaviours.
	for i := 0; i < 2; i++ {
		ddio, idio := rows[i], rows[i+2]
		if idio.MLCWB*4 > ddio.MLCWB {
			t.Errorf("%s: IDIO MLC WB %d not << DDIO %d", ddio.Value, idio.MLCWB, ddio.MLCWB)
		}
		if ddio.Drops != 0 || idio.Drops != 0 {
			t.Errorf("%s: drops", ddio.Value)
		}
	}
}

func TestAblationFrameSize(t *testing.T) {
	rows := AblationFrameSize(smallAblationOpts(25), []int{128, 512, 1514})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// DDIO's writeback volume grows with frame size (more payload
	// lines per packet to consume and evict).
	if !(rows[0].MLCWB <= rows[1].MLCWB && rows[1].MLCWB <= rows[2].MLCWB) {
		t.Errorf("DDIO MLC WB must grow with frame size: %d %d %d",
			rows[0].MLCWB, rows[1].MLCWB, rows[2].MLCWB)
	}
	// LLC-leak elimination holds at every size; the MLC-writeback
	// benefit is size-dependent (at tiny frames descriptor churn makes
	// IDIO's MLC traffic comparable to DDIO's) and complete at MTU.
	for i := 0; i < 3; i++ {
		ddio, idio := rows[i], rows[i+3]
		if idio.LLCWB*4 > ddio.LLCWB {
			t.Errorf("%s: IDIO LLC WB %d not << DDIO %d", ddio.Value, idio.LLCWB, ddio.LLCWB)
		}
	}
	if rows[5].MLCWB*10 > rows[2].MLCWB {
		t.Errorf("MTU: IDIO MLC WB %d not << DDIO %d", rows[5].MLCWB, rows[2].MLCWB)
	}
	// The absolute IDIO-vs-DDIO exe gap widens with frame size
	// (payload orchestration pays off as payloads grow).
	gapSmall := rows[0].ExeTimeUS - rows[3].ExeTimeUS
	gapMTU := rows[2].ExeTimeUS - rows[5].ExeTimeUS
	if gapMTU <= gapSmall {
		t.Errorf("exe gap must widen with frames: %.0f (128B) vs %.0f (MTU)", gapSmall, gapMTU)
	}
}

func TestAblationAdaptivePrefetch(t *testing.T) {
	rows := AblationAdaptivePrefetch(smallAblationOpts(100))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	none, fsm, adaptive := rows[0], rows[1], rows[2]
	// Any regulator must not lose packets.
	if none.Drops != 0 || fsm.Drops != 0 || adaptive.Drops != 0 {
		t.Error("no drops expected")
	}
	// The adaptive throttle regulates MLC pressure at least as well
	// as the unregulated Static prefetcher (the paper predicts "more
	// benefit" from following the CPU's consumption).
	if adaptive.MLCWB > none.MLCWB {
		t.Errorf("adaptive MLC WB %d !<= unregulated %d", adaptive.MLCWB, none.MLCWB)
	}
	_ = fsm
}
