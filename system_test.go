package idio

import (
	"slices"
	"strings"
	"testing"

	"idio/internal/apps"
	idiocore "idio/internal/core"
	"idio/internal/obs"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// smallCfg shrinks the caches so capacity effects show with small
// rings and short runs.
func smallCfg(cores int, policy idiocore.Policy) Config {
	cfg := DefaultConfig(cores)
	cfg.Hier.MLCSize = 256 << 10
	cfg.Hier.LLCSize = 768 << 10
	cfg.NIC.RingSize = 256
	cfg.Policy = policy
	return cfg
}

func installTouchDrop(sys *System, cores int, gbps float64, pktsPerNF int) {
	for c := 0; c < cores; c++ {
		flow := sys.DefaultFlow(c)
		sys.AddNF(c, apps.TouchDrop{}, flow)
		traffic.Bursty{
			Flow: flow, BurstRateBps: traffic.Gbps(gbps),
			Period: 10 * sim.Millisecond, PacketsPerBurst: pktsPerNF, NumBursts: 1,
		}.Install(sys.Sim, sys.NIC)
	}
}

func TestSystemEndToEndDDIO(t *testing.T) {
	sys := NewSystem(smallCfg(2, idiocore.PolicyDDIO))
	installTouchDrop(sys, 2, 25, 256)
	res := sys.RunUntilIdle(9 * sim.Millisecond)
	if res.TotalProcessed() != 512 {
		t.Fatalf("processed %d, want 512", res.TotalProcessed())
	}
	if res.NIC.RxDrops != 0 {
		t.Fatalf("drops %d", res.NIC.RxDrops)
	}
	if res.Hier.MLCWriteback == 0 {
		t.Fatal("DDIO baseline must produce MLC writebacks")
	}
	if res.ExeTime <= 0 {
		t.Fatal("exe time not measured")
	}
	if res.Cores[0].P99 < res.Cores[0].P50 {
		t.Fatal("percentiles inconsistent")
	}
	// Drained run: every generated packet must have come back to the
	// host pool.
	if res.PktPool.Outstanding != 0 {
		t.Fatalf("packet pool leak after drain: %+v", res.PktPool)
	}
	if res.PktPool.Gets == 0 {
		t.Fatal("generator did not draw from the host pool")
	}
}

func TestSystemIDIOBeatsDDIO(t *testing.T) {
	run := func(policy idiocore.Policy) Results {
		sys := NewSystem(smallCfg(2, policy))
		installTouchDrop(sys, 2, 25, 256)
		return sys.RunUntilIdle(9 * sim.Millisecond)
	}
	ddio := run(idiocore.PolicyDDIO)
	idio := run(idiocore.PolicyIDIO)
	if idio.Hier.MLCWriteback >= ddio.Hier.MLCWriteback {
		t.Errorf("IDIO MLC WB %d !< DDIO %d", idio.Hier.MLCWriteback, ddio.Hier.MLCWriteback)
	}
	if idio.Hier.LLCWriteback >= ddio.Hier.LLCWriteback {
		t.Errorf("IDIO LLC WB %d !< DDIO %d", idio.Hier.LLCWriteback, ddio.Hier.LLCWriteback)
	}
	if idio.ExeTime > ddio.ExeTime {
		t.Errorf("IDIO exe %v !<= DDIO %v", idio.ExeTime, ddio.ExeTime)
	}
	if idio.Hier.SelfInval == 0 || idio.Hier.PrefetchFill == 0 {
		t.Error("IDIO mechanisms idle")
	}
	if ddio.Hier.SelfInval != 0 || ddio.Hier.PrefetchFill != 0 {
		t.Error("DDIO must not use IDIO mechanisms")
	}
}

func TestSystemRunResumes(t *testing.T) {
	sys := NewSystem(smallCfg(1, idiocore.PolicyDDIO))
	flow := sys.DefaultFlow(0)
	sys.AddNF(0, apps.TouchDrop{}, flow)
	traffic.Steady{Flow: flow, RateBps: traffic.Gbps(5), Count: 64}.Install(sys.Sim, sys.NIC)
	r1 := sys.Run(10 * sim.Microsecond)
	r2 := sys.Run(5 * sim.Millisecond)
	if r2.TotalProcessed() < r1.TotalProcessed() {
		t.Fatal("progress must be monotonic")
	}
	if r2.TotalProcessed() != 64 {
		t.Fatalf("processed %d, want 64", r2.TotalProcessed())
	}
}

func TestSystemDoubleAddNFPanics(t *testing.T) {
	sys := NewSystem(smallCfg(1, idiocore.PolicyDDIO))
	sys.AddNF(0, apps.TouchDrop{}, sys.DefaultFlow(0))
	defer func() {
		if recover() == nil {
			t.Fatal("double AddNF must panic")
		}
	}()
	sys.AddNF(0, apps.TouchDrop{}, sys.DefaultFlow(0))
}

func TestInvalidatableEnforcementEndToEnd(t *testing.T) {
	cfg := smallCfg(1, idiocore.PolicyIDIO)
	sys := NewSystem(cfg)
	flow := sys.DefaultFlow(0)
	sys.AddNF(0, apps.TouchDrop{}, flow)
	traffic.Steady{Flow: flow, RateBps: traffic.Gbps(5), Count: 32}.Install(sys.Sim, sys.NIC)
	// Ring buffers were registered Invalidatable at construction, so
	// the self-invalidating stack must run without tripping the check.
	res := sys.RunUntilIdle(5 * sim.Millisecond)
	if res.TotalProcessed() != 32 {
		t.Fatalf("processed %d", res.TotalProcessed())
	}
	if res.Hier.SelfInval == 0 {
		t.Fatal("self invalidation must have fired under enforcement")
	}
}

func TestResultsStringIsReadable(t *testing.T) {
	sys := NewSystem(smallCfg(1, idiocore.PolicyIDIO))
	flow := sys.DefaultFlow(0)
	sys.AddNF(0, apps.TouchDrop{}, flow)
	traffic.Steady{Flow: flow, RateBps: traffic.Gbps(5), Count: 16}.Install(sys.Sim, sys.NIC)
	res := sys.RunUntilIdle(5 * sim.Millisecond)
	out := res.String()
	for _, want := range []string{"MLC WB", "DRAM", "core0", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestWriteStatsKeyValueFormat(t *testing.T) {
	sys := NewSystem(smallCfg(1, idiocore.PolicyIDIO))
	flow := sys.DefaultFlow(0)
	sys.AddNF(0, apps.TouchDrop{}, flow)
	traffic.Steady{Flow: flow, RateBps: traffic.Gbps(5), Count: 32}.Install(sys.Sim, sys.NIC)
	res := sys.RunUntilIdle(5 * sim.Millisecond)
	var buf strings.Builder
	if err := res.WriteStats(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, key := range []string{
		"nic.rx_packets", "hier.mlc_writebacks", "hier.self_invalidations",
		"dram.reads", "core0.processed", "core0.p99_us",
	} {
		if !strings.Contains(out, key) {
			t.Fatalf("stats dump missing %q:\n%s", key, out)
		}
	}
	// Every line is "key value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed stats line %q", line)
		}
	}
}

func TestPoissonArrivalsStretchTheTail(t *testing.T) {
	// Same average rate, deterministic vs Poisson arrivals: the
	// memoryless stream's p99/p50 ratio must exceed the deterministic
	// stream's (queueing from arrival clumps).
	run := func(poisson bool) Results {
		sys := NewSystem(smallCfg(1, idiocore.PolicyIDIO))
		flow := sys.DefaultFlow(0)
		sys.AddNF(0, apps.TouchDrop{}, flow)
		if poisson {
			traffic.Poisson{Flow: flow, RateBps: traffic.Gbps(8), Count: 2048, Seed: 9}.Install(sys.Sim, sys.NIC)
		} else {
			traffic.Steady{Flow: flow, RateBps: traffic.Gbps(8), Count: 2048}.Install(sys.Sim, sys.NIC)
		}
		return sys.RunUntilIdle(20 * sim.Millisecond)
	}
	det := run(false)
	poi := run(true)
	detRatio := float64(det.P99Across()) / float64(det.P50Across())
	poiRatio := float64(poi.P99Across()) / float64(poi.P50Across())
	if poiRatio <= detRatio {
		t.Fatalf("poisson tail ratio %.2f !> deterministic %.2f", poiRatio, detRatio)
	}
}

func TestPerCoreDemandBreakdown(t *testing.T) {
	run := func(policy idiocore.Policy) Results {
		sys := NewSystem(smallCfg(2, policy))
		installTouchDrop(sys, 2, 25, 256)
		return sys.RunUntilIdle(9 * sim.Millisecond)
	}
	ddio := run(idiocore.PolicyDDIO)
	idio := run(idiocore.PolicyIDIO)
	for c := 0; c < 2; c++ {
		d, i := ddio.Cores[c].Demand, idio.Cores[c].Demand
		if d.Total() == 0 || i.Total() == 0 {
			t.Fatalf("core %d: no demand recorded", c)
		}
		// IDIO shifts demand hits from LLC/DRAM into the MLC.
		if i.MLCHit <= d.MLCHit {
			t.Errorf("core %d: IDIO MLC hits %d !> DDIO %d", c, i.MLCHit, d.MLCHit)
		}
		if i.HitRateOnChip() < d.HitRateOnChip() {
			t.Errorf("core %d: IDIO on-chip rate %.3f < DDIO %.3f",
				c, i.HitRateOnChip(), d.HitRateOnChip())
		}
	}
	// The stats dump exposes the breakdown.
	var buf strings.Builder
	if err := idio.WriteStats(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "core0.demand_mlc") ||
		!strings.Contains(buf.String(), "core1.onchip_hit_rate") {
		t.Fatal("stats dump missing per-core demand keys")
	}
}

// seriesMax is the largest value the named metric took across a run's
// periodic registry snapshots.
func seriesMax(t *testing.T, s *obs.Series, name string) float64 {
	t.Helper()
	col := slices.Index(s.Names(), name)
	if col < 0 {
		t.Fatalf("metric series has no %s column", name)
	}
	var m float64
	for i := 0; i < s.Len(); i++ {
		_, row := s.Row(i)
		m = max(m, row[col])
	}
	return m
}

func TestOccupancySamplingShowsBloat(t *testing.T) {
	cfg := smallCfg(1, idiocore.PolicyDDIO)
	cfg.Obs.MetricsInterval = 10 * sim.Microsecond
	sys := NewSystem(cfg)
	flow := sys.DefaultFlow(0)
	sys.AddNF(0, apps.TouchDrop{}, flow)
	traffic.Bursty{
		Flow: flow, BurstRateBps: traffic.Gbps(25),
		Period: 10 * sim.Millisecond, PacketsPerBurst: 256, NumBursts: 1,
	}.Install(sys.Sim, sys.NIC)
	res := sys.RunUntilIdle(9 * sim.Millisecond)

	if res.MetricSeries.Len() == 0 {
		t.Fatal("occupancy gauges empty")
	}
	llc := seriesMax(t, res.MetricSeries, "hier.llc_occupancy")
	// During the burst the LLC holds IO-classified lines...
	if seriesMax(t, res.MetricSeries, "hier.llc_occupancy_io") == 0 {
		t.Fatal("IO occupancy never rose during the burst")
	}
	// ...and the total LLC occupancy exceeds the DDIO ways' capacity:
	// MLC victims bloat into non-DDIO ways (Observation 3).
	ddioCap := float64(cfg.Hier.LLCSize / 64 / cfg.Hier.LLCAssoc * cfg.Hier.DDIOWays)
	if llc <= ddioCap {
		t.Fatalf("LLC occupancy peaked at %.0f, within DDIO capacity %.0f — no bloat", llc, ddioCap)
	}
	// The MLC gauge saw the execution phase.
	if seriesMax(t, res.MetricSeries, "hier.mlc0_occupancy") == 0 {
		t.Fatal("MLC occupancy never rose")
	}
	// Gauges are levels, not rates: values are bounded by capacity.
	if llc > float64(cfg.Hier.LLCSize/64) {
		t.Fatal("occupancy exceeds capacity")
	}
}

// The paper observes the execution phase starts ~1.9 µs after the
// first DMA transaction — the NIC's descriptor write-back lag. Check
// that the default configuration reproduces that gap.
func TestDescriptorLagMatchesPaper(t *testing.T) {
	cfg := smallCfg(1, idiocore.PolicyDDIO)
	cfg.Obs.TraceSampleN = 1
	sys := NewSystem(cfg)
	var log eventLog
	sys.Observe().SetSink(&log)
	flow := sys.DefaultFlow(0)
	sys.AddNF(0, apps.TouchDrop{}, flow)
	traffic.Steady{Flow: flow, RateBps: traffic.Gbps(10), Count: 4}.Install(sys.Sim, sys.NIC)
	sys.RunUntilIdle(5 * sim.Millisecond)

	first, ok := sys.FirstDMAAt()
	if !ok {
		t.Fatal("no DMA observed")
	}
	i := slices.IndexFunc(log.events, func(e obs.Event) bool { return e.Kind == obs.EvDone })
	if i < 0 {
		t.Fatal("no EvDone traced")
	}
	lag := log.events[i].Start.Sub(first)
	// Wire time for 26 lines + the 1.9 us coalescing window + one poll
	// interval of driver reaction: the observable lag must be within
	// ~[1.9, 2.4] us.
	if lag < 1900*sim.Nanosecond || lag > 2400*sim.Nanosecond {
		t.Fatalf("execution-phase lag %v, want ~1.9-2.4us (Sec. VII)", lag)
	}
}

func TestTableIDefaults(t *testing.T) {
	cfg := DefaultConfig(2)
	// Table I: 3 GHz, 32KB L1 2-way, 1MB MLC 8-way 12CC, 1.5MB x 12-way
	// LLC per core, DDR4-3200, DPDK defaults.
	if cfg.Hier.Clock.FreqHz() != 3_000_000_000 {
		t.Error("core frequency")
	}
	if cfg.Hier.L1Size != 32<<10 || cfg.Hier.L1Assoc != 2 {
		t.Error("L1 geometry")
	}
	if cfg.Hier.MLCSize != 1<<20 || cfg.Hier.MLCAssoc != 8 || cfg.Hier.MLCLat != 12 {
		t.Error("MLC geometry")
	}
	if cfg.Hier.LLCSize != 3<<20 || cfg.Hier.LLCAssoc != 12 || cfg.Hier.LLCLat != 24 {
		t.Error("LLC geometry")
	}
	if cfg.Hier.DDIOWays != 2 {
		t.Error("DDIO ways")
	}
	if cfg.NIC.RingSize != 1024 {
		t.Error("DPDK default ring size")
	}
	if cfg.CPU.BatchSize != 32 {
		t.Error("DPDK default batch")
	}
	if cfg.Classifier.RxBurstTHR != 1250 {
		t.Error("rxBurstTHR: 10 Gbps over 1us = 1250 bytes")
	}
	if cfg.Controller.MLCTHR != 50 {
		t.Error("mlcTHR: 50 MTPS = 50 per us")
	}
	if cfg.Controller.AvgWindow != 8192 {
		t.Error("mlcWBAvg window")
	}
	if cfg.Prefetcher.QueueDepth != 32 {
		t.Error("prefetcher queue depth")
	}
	g5 := Gem5Config()
	if g5.Hier.LLCSize != 3<<20 || g5.NumCores() != 2 {
		t.Error("gem5 scaled config")
	}
}
