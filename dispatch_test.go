package idio_test

import (
	"testing"

	"idio"
	"idio/internal/apps"
	idiocore "idio/internal/core"
	"idio/internal/hier"
	fnet "idio/internal/net"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// Dispatch-count guards. The event kernel runs each paced stream — the
// NIC's DMA line walks, the prefetcher's issue train, a core's idle
// poll and packet retirements — as one fused handler that dispatches
// interleaving events in place instead of yielding through the
// scheduler (sim.ContinueArg, sim.FuseAfter, sim.FuseAtArg). The count
// of dispatched events is deterministic, so a change that brings back a
// scheduler round trip per line or per issue fails here instead of
// showing up only as host time.

// runBurstSystem runs an IDIO burst system like
// BenchmarkPacketLifecycle's, with 100 Gbps bursts of one ring per core
// so the prefetcher and the DMA walks interleave.
func runBurstSystem() (*idio.System, idio.Results) {
	cfg := idio.DefaultConfig(2)
	cfg.Hier.MLCSize = benchMLC
	cfg.Hier.LLCSize = benchLLC
	cfg.NIC.RingSize = benchRing
	cfg.Policy = idiocore.PolicyIDIO
	sys := idio.NewSystem(cfg)
	for c := 0; c < cfg.NumCores(); c++ {
		flow := sys.DefaultFlow(c)
		sys.AddNF(c, apps.TouchDrop{}, flow)
		traffic.Bursty{
			Flow:            flow,
			BurstRateBps:    traffic.Gbps(100),
			Period:          300 * sim.Microsecond,
			PacketsPerBurst: benchRing,
			Start:           sim.Time(c) * sim.Time(50*sim.Microsecond),
			NumBursts:       4,
		}.Install(sys.Sim, sys.NIC)
	}
	sys.Start()
	sys.Sim.RunUntil(sim.Time(1500 * sim.Microsecond))
	return sys, sys.Collect()
}

// runChurnCluster runs a small churn cluster: 16k flows behind one
// client, request and response crossing the fabric.
func runChurnCluster(t *testing.T) *idio.Cluster {
	t.Helper()
	ccfg := idio.DefaultClusterConfig(1, 1)
	ccfg.Host.Hier.MLCSize = benchMLC
	ccfg.Host.Hier.LLCSize = benchLLC
	ccfg.Host.NIC.RingSize = benchRing
	ccfg.Host.Policy = idiocore.PolicyIDIO
	cl, err := idio.NewCluster(ccfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl.DUT.AddNF(0, apps.L2Fwd{}, cl.DUT.DefaultFlow(0))
	cl.AddChurnClient(0, fnet.ChurnConfig{
		Flows:    16 << 10,
		Requests: 1 << 62,
		Think:    50 * sim.Millisecond,
		Seed:     11,
	})
	cl.Start()
	cl.Sim.RunUntil(sim.Time(20 * sim.Millisecond))
	return cl
}

func TestDispatchesPerPacketBurst(t *testing.T) {
	sys, res := runBurstSystem()
	checkDispatches(t, sys.Sim.Processed(), res.NIC.RxPackets, 4*benchRing,
		// Measured: 12.29 dispatches per packet; 22.07 when every
		// refused step yielded through the scheduler.
		13.5)
}

func TestDispatchesPerPacketChurn(t *testing.T) {
	cl := runChurnCluster(t)
	checkDispatches(t, cl.Sim.Processed(), cl.DUT.NIC.Stats().RxPackets, 4000,
		// Measured: 24.44 dispatches per packet; 39.46 when every
		// refused step yielded through the scheduler.
		27)
}

// Probe-count guards. Every hierarchy transaction is a few tag searches
// of the L1s, MLCs, LLC and snoop directory, and those searches were
// the largest host cost of a packet. The count is deterministic, so a
// change that brings back a search the hierarchy's invariants or
// placement records already answer (DESIGN.md, "Implied probes" and
// "Carried placement") fails here. Both guards also check the
// hierarchy's coherence and back-pointer invariants once the run ends.

func TestProbesPerPacketBurst(t *testing.T) {
	sys, res := runBurstSystem()
	checkProbes(t, sys.Hier, res.NIC.RxPackets, 4*benchRing,
		// Measured: 15.28 searches per packet (L1 0, MLC 0, LLC 7.64,
		// directory 7.64), every one of them a line's first DMA write,
		// before it has a placement record; 247.1 (L1 53.7, MLC 50.0,
		// LLC 58.0, directory 85.4) when every transaction searched
		// where no invariant answered, 313.5 when every transaction
		// searched each structure it touches.
		15.75)
}

func TestProbesPerPacketChurn(t *testing.T) {
	cl := runChurnCluster(t)
	checkProbes(t, cl.DUT.Hier, cl.DUT.NIC.Stats().RxPackets, 4000,
		// Measured: 2.07 searches per packet (L1 0, MLC 0, LLC 1.03,
		// directory 1.03), every one of them a line's first DMA write;
		// 203.0 (L1 17.3, MLC 42.6, LLC 76.0, directory 67.1) when
		// every transaction searched where no invariant answered, 252.1
		// when every transaction searched each structure it touches.
		2.13)
}

func checkProbes(t *testing.T, h *hier.Hierarchy, rx, minRx uint64, bound float64) {
	t.Helper()
	if err := h.CheckCoherence(); err != nil {
		t.Fatalf("after the run: %v", err)
	}
	if rx < minRx {
		t.Fatalf("received %d packets, want at least %d", rx, minRx)
	}
	p := h.Probes()
	per := func(n uint64) float64 { return float64(n) / float64(rx) }
	t.Logf("tag searches per packet over %d packets: L1 %.2f, MLC %.2f, LLC %.2f, directory %.2f, total %.2f",
		rx, per(p.L1), per(p.MLC), per(p.LLC), per(p.Dir), per(p.Total()))
	if per(p.Total()) > bound {
		t.Fatalf("%.2f tag searches per received packet, bound %v: a search the hierarchy's invariants or placement records answer is back", per(p.Total()), bound)
	}
}

func checkDispatches(t *testing.T, events, rx, minRx uint64, bound float64) {
	t.Helper()
	if rx < minRx {
		t.Fatalf("received %d packets, want at least %d", rx, minRx)
	}
	per := float64(events) / float64(rx)
	t.Logf("%d events for %d packets: %.2f dispatches per packet", events, rx, per)
	if per > bound {
		t.Fatalf("%.2f dispatches per received packet, bound %v: a fused stream is going through the scheduler again", per, bound)
	}
}
