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

// The hierarchy's coherence, back-pointer and placement-record
// invariants (Hierarchy.CheckCoherence) hold at the end of a burst run
// and of a churn run, the two regimes whose hierarchy ops differ most.

func TestCoherenceAfterBurst(t *testing.T) {
	sys, res := runBurstSystem()
	checkCoherenceAfter(t, sys.Hier, res.NIC.RxPackets, 4*benchRing)
}

func TestCoherenceAfterChurn(t *testing.T) {
	cl := runChurnCluster(t)
	checkCoherenceAfter(t, cl.DUT.Hier, cl.DUT.NIC.Stats().RxPackets, 4000)
}

func checkCoherenceAfter(t *testing.T, h *hier.Hierarchy, rx, minRx uint64) {
	t.Helper()
	if err := h.CheckCoherence(); err != nil {
		t.Fatalf("after the run: %v", err)
	}
	if rx < minRx {
		t.Fatalf("received %d packets, want at least %d", rx, minRx)
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
