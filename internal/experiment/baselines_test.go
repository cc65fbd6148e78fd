package experiment

import (
	"testing"

	idiocore "idio/internal/core"
	"idio/internal/sim"
)

func TestBaselinesReproduceS1(t *testing.T) {
	ddio := quickRun(t, "ablations", "DDIO(static 2-way)")
	dyn := quickRun(t, "ablations", "DynamicWays(2..4)")
	idioRun := quickRun(t, "ablations", "IDIO")

	// The dynamic baseline grows its allocation under leak pressure...
	if peakWays(dyn) <= 2 {
		t.Errorf("dynamic baseline never grew: peak %.0f ways", peakWays(dyn))
	}
	// ...and thereby reduces LLC writebacks relative to static DDIO...
	if llcWB(dyn) >= llcWB(ddio) {
		t.Errorf("dynamic ways LLC WB %.0f !< static %.0f", llcWB(dyn), llcWB(ddio))
	}
	// ...but S1: it cannot touch the MLC writeback problem (all data
	// still lands in the LLC, dead buffers still evict from the MLC).
	if mlcWB(dyn) < mlcWB(ddio)*9/10 {
		t.Errorf("dynamic ways should not materially change MLC WB: %.0f vs %.0f", mlcWB(dyn), mlcWB(ddio))
	}
	// IDIO beats both on MLC writebacks.
	if mlcWB(idioRun) >= mlcWB(dyn) || mlcWB(idioRun) >= mlcWB(ddio) {
		t.Errorf("IDIO MLC WB %.0f must undercut both baselines (%.0f, %.0f)",
			mlcWB(idioRun), mlcWB(ddio), mlcWB(dyn))
	}
}

func TestWayTunerGrowAndShrink(t *testing.T) {
	leaks := uint64(0)
	ways := 0
	cfg := idiocore.WayTunerConfig{
		MinWays: 2, MaxWays: 4,
		SampleInterval: 100 * sim.Microsecond,
		GrowTHR:        10, ShrinkTHR: 2,
	}
	w := idiocore.NewWayTuner(cfg, func() uint64 { return leaks }, func(n int) { ways = n })
	s := sim.New()
	w.Start(s)
	s.RunUntil(0)
	if ways != 2 {
		t.Fatalf("tuner must start at MinWays: %d", ways)
	}
	// Heavy leaking: grows one way per interval up to the cap.
	leaks += 100
	s.RunUntil(sim.Time(100 * sim.Microsecond))
	if ways != 3 {
		t.Fatalf("ways = %d after one loaded interval, want 3", ways)
	}
	leaks += 100
	s.RunUntil(sim.Time(200 * sim.Microsecond))
	leaks += 100
	s.RunUntil(sim.Time(300 * sim.Microsecond))
	if ways != 4 || w.Ways() != 4 {
		t.Fatalf("ways = %d, want cap 4", ways)
	}
	// Quiet: shrinks back to the floor.
	s.RunUntil(sim.Time(600 * sim.Microsecond))
	if ways != 2 {
		t.Fatalf("ways = %d after quiet intervals, want 2", ways)
	}
	if w.Grows == 0 || w.Shrinks == 0 {
		t.Fatalf("tuner stats grows=%d shrinks=%d", w.Grows, w.Shrinks)
	}
}

func TestWayTunerValidation(t *testing.T) {
	for _, cfg := range []idiocore.WayTunerConfig{
		{MinWays: 0, MaxWays: 2, SampleInterval: 1},
		{MinWays: 3, MaxWays: 2, SampleInterval: 1},
		{MinWays: 1, MaxWays: 2, SampleInterval: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", cfg)
				}
			}()
			idiocore.NewWayTuner(cfg, func() uint64 { return 0 }, func(int) {})
		}()
	}
}
