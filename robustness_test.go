package idio

// Robustness: the system must degrade — drop, count, and keep going —
// under injected faults, never crash or hang, and fault-injected runs
// must stay bit-reproducible per seed.

import (
	"strings"
	"testing"

	"idio/internal/apps"
	idiocore "idio/internal/core"
	"idio/internal/fault"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// TestRingOverflowUnderStalledDMA: a paced-DMA stall (a timeline
// nic/dma-stall phase) under bursty traffic backs descriptors up into
// the ring until it overflows; every lost packet must be accounted as
// a drop, and the system must keep processing once the stall clears.
func TestRingOverflowUnderStalledDMA(t *testing.T) {
	cfg := smallCfg(1, idiocore.PolicyDDIO)
	cfg.NIC.RingSize = 64
	cfg.Faults = &fault.Config{Timeline: []fault.Phase{
		{Layer: "nic", Kind: "dma-stall", Duration: 2 * sim.Millisecond},
	}}
	sys := NewSystem(cfg)
	flow := sys.DefaultFlow(0)
	sys.AddNF(0, apps.TouchDrop{}, flow)
	const generated = 512
	traffic.Bursty{
		Flow: flow, BurstRateBps: traffic.Gbps(100),
		Period: 10 * sim.Millisecond, PacketsPerBurst: generated, NumBursts: 1,
	}.Install(sys.Sim, sys.NIC)
	res := sys.RunUntilIdle(9 * sim.Millisecond)

	if res.Faults.DMAStalls == 0 {
		t.Fatal("no DMA stalls injected")
	}
	if res.NIC.RxDrops == 0 {
		t.Fatal("stalled DMA should have overflowed the 64-entry ring")
	}
	if res.TotalProcessed() == 0 {
		t.Fatal("system wedged: nothing processed despite transient stalls")
	}
	if got := res.TotalProcessed() + res.NIC.RxDrops; got != generated {
		t.Fatalf("conservation: processed+dropped = %d, want %d", got, generated)
	}
}

// TestMbufPoolExhaustionUnderBurst: a pooled ring whose pool is
// smaller than the burst takes PoolDrops for the overflow — and every
// packet is still exactly one of processed / ring-dropped /
// pool-dropped.
func TestMbufPoolExhaustionUnderBurst(t *testing.T) {
	cfg := smallCfg(1, idiocore.PolicyDDIO)
	sys := NewSystem(cfg)
	flow := sys.DefaultFlow(0)
	sys.AddNF(0, apps.TouchDrop{}, flow)
	pool := sys.NewMbufPool(16)
	sys.NIC.Ring(0).AttachPool(pool)
	const generated = 64
	traffic.Bursty{
		Flow: flow, BurstRateBps: traffic.Gbps(100),
		Period: 10 * sim.Millisecond, PacketsPerBurst: generated, NumBursts: 1,
	}.Install(sys.Sim, sys.NIC)
	res := sys.RunUntilIdle(9 * sim.Millisecond)

	if res.NIC.PoolDrops == 0 {
		t.Fatal("a 16-buffer pool under a 64-packet burst should exhaust")
	}
	if res.TotalProcessed() == 0 {
		t.Fatal("nothing processed")
	}
	if got := res.TotalProcessed() + res.NIC.RxDrops + res.NIC.PoolDrops; got != generated {
		t.Fatalf("conservation: processed+drops+poolDrops = %d, want %d", got, generated)
	}
}

// TestFaultInjectedDeterministicReplay: two runs with identical seeds,
// every host injector enabled and one timeline phase on each host
// layer must produce bit-identical statistics — the tentpole property
// that makes fault scenarios debuggable. (Fabric phases need a
// cluster; TestChaosClusterDeterministicReplay replays them.)
func TestFaultInjectedDeterministicReplay(t *testing.T) {
	// The run drains in under 1 ms; the phases start 100 us apart
	// inside it.
	ms, step := sim.Millisecond, 100*sim.Microsecond
	run := func() string {
		cfg := smallCfg(2, idiocore.PolicyIDIO)
		cfg.Faults = &fault.Config{
			Seed:      1234,
			PCIe:      &fault.PCIeConfig{CorruptProb: 0.02, PoisonProb: 0.01},
			DRAMSpike: &fault.DRAMSpikeConfig{Period: ms, Extra: 100 * sim.Nanosecond, Length: 100 * sim.Microsecond},
			CoreStall: &fault.CoreStallConfig{Period: ms, Stall: 30 * sim.Microsecond},
			Timeline: []fault.Phase{
				{Layer: "nic", Kind: "dma-stall", Start: sim.Time(step), Duration: 20 * sim.Microsecond},
				{Layer: "dram", Kind: "spike", Start: sim.Time(2 * step), Duration: 100 * sim.Microsecond, Magnitude: 200},
				{Layer: "core", Kind: "stall", Start: sim.Time(3 * step), Duration: 30 * sim.Microsecond, Target: 1},
			},
		}
		wd := sim.DefaultWatchdogConfig()
		cfg.Watchdog = &wd
		sys := NewSystem(cfg)
		for c := 0; c < 2; c++ {
			flow := sys.DefaultFlow(c)
			sys.AddNF(c, apps.TouchDrop{}, flow)
			traffic.Poisson{Flow: flow, RateBps: traffic.Gbps(10), Count: 512, Seed: 7}.Install(sys.Sim, sys.NIC)
		}
		res := sys.RunUntilIdle(20 * sim.Millisecond)
		if res.Faults.Total() == 0 {
			t.Fatal("no faults injected")
		}
		if res.Faults.TimelinePhases != 3 {
			t.Fatalf("%d of 3 timeline phases applied", res.Faults.TimelinePhases)
		}
		var buf strings.Builder
		if err := res.WriteStats(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("fault-injected runs diverged:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
}

// TestCoreStallPhaseTargetsCoreID: a core phase stalls the core its
// Target names, whatever order the NFs were added in.
func TestCoreStallPhaseTargetsCoreID(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &fault.Config{Timeline: []fault.Phase{
		{Layer: "core", Kind: "stall", Start: sim.Time(100 * sim.Microsecond), Duration: 500 * sim.Microsecond, Target: 0},
	}}
	sys := NewSystem(cfg)
	for _, c := range []int{1, 0} {
		flow := sys.DefaultFlow(c)
		sys.AddNF(c, apps.TouchDrop{}, flow)
		traffic.Steady{Flow: flow, RateBps: traffic.Gbps(5), Count: 512}.Install(sys.Sim, sys.NIC)
	}
	res := sys.RunUntilIdle(5 * sim.Millisecond)
	if res.Faults.TimelinePhases != 1 {
		t.Fatalf("%d of 1 timeline phase applied", res.Faults.TimelinePhases)
	}
	if p0, p1 := res.Cores[0].P99, res.Cores[1].P99; p0 < 100*sim.Microsecond || p1 > 100*sim.Microsecond {
		t.Fatalf("p99 core 0 %.2fus, core 1 %.2fus: want the stall on core 0 only", p0.Microseconds(), p1.Microseconds())
	}
}

// TestCorruptedTLPsDegradeGracefully: with every TLP's metadata
// corrupted, mis-steers must be counted and degraded to the LLC
// default — packets still flow, nothing panics.
func TestCorruptedTLPsDegradeGracefully(t *testing.T) {
	cfg := smallCfg(2, idiocore.PolicyIDIO)
	cfg.Faults = &fault.Config{
		Seed: 8,
		PCIe: &fault.PCIeConfig{CorruptProb: 1},
	}
	sys := NewSystem(cfg)
	installTouchDrop(sys, 2, 25, 256)
	res := sys.RunUntilIdle(9 * sim.Millisecond)

	if res.Faults.TLPsCorrupted == 0 {
		t.Fatal("no TLPs corrupted")
	}
	if res.TotalProcessed() == 0 {
		t.Fatal("corruption wedged the pipeline")
	}
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
}

// TestLinkFlapDrops: link-down windows lose packets at the MAC, which
// are counted separately from ring drops, and the link carries traffic
// again once it comes back up.
func TestLinkFlapDrops(t *testing.T) {
	cfg := smallCfg(1, idiocore.PolicyDDIO)
	sys := NewSystem(cfg)
	flow := sys.DefaultFlow(0)
	sys.AddNF(0, apps.TouchDrop{}, flow)
	const generated = 2048
	traffic.Steady{Flow: flow, RateBps: traffic.Gbps(5), Count: generated}.Install(sys.Sim, sys.NIC)
	// Three 150 us down windows, one every 200 us.
	for i := 1; i <= 3; i++ {
		down := sim.Time(i) * sim.Time(200*sim.Microsecond)
		sys.Sim.At(down, func(*sim.Simulator) { sys.NIC.SetLinkState(false) })
		sys.Sim.At(down.Add(150*sim.Microsecond), func(*sim.Simulator) { sys.NIC.SetLinkState(true) })
	}
	res := sys.Run(8 * sim.Millisecond)

	if res.NIC.LinkDownDrops == 0 {
		t.Fatal("flaps lost no packets at a rate that should straddle down windows")
	}
	if !sys.NIC.LinkUp() {
		t.Fatal("link still down after the last window")
	}
	if got := res.TotalProcessed() + res.NIC.RxDrops + res.NIC.LinkDownDrops; got != generated {
		t.Fatalf("conservation: processed+drops+linkDownDrops = %d, want %d", got, generated)
	}
	if res.TotalProcessed() == 0 {
		t.Fatal("link never recovered")
	}
}

// TestWatchdogSurfacesInResults: an event-budget trip shows up as a
// structured abort in Results, and the run terminates instead of
// hanging.
func TestWatchdogSurfacesInResults(t *testing.T) {
	cfg := smallCfg(1, idiocore.PolicyDDIO)
	cfg.Watchdog = &sim.WatchdogConfig{MaxProcessedEvents: 500}
	sys := NewSystem(cfg)
	flow := sys.DefaultFlow(0)
	sys.AddNF(0, apps.TouchDrop{}, flow)
	traffic.Steady{Flow: flow, RateBps: traffic.Gbps(10), Count: 10000}.Install(sys.Sim, sys.NIC)
	res := sys.Run(5 * sim.Millisecond)
	if res.Aborted == nil {
		t.Fatal("tiny event budget did not trip")
	}
	if res.Aborted.Kind != "event-budget" {
		t.Fatalf("kind = %q", res.Aborted.Kind)
	}
	if sys.Err() == nil {
		t.Fatal("System.Err did not surface the abort")
	}
	// The stats dump stays two-fields-per-line even when aborted.
	var buf strings.Builder
	if err := res.WriteStats(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sim.aborted") {
		t.Fatal("stats dump missing sim.aborted")
	}
}
