// Benchmark harness: one sub-benchmark per experiment catalogue entry
// at reduced scale (256-entry rings, proportionally scaled caches), so
// `go test -bench=.` finishes in minutes, plus the packet-lifecycle and
// million-flow loops. Run `go run ./cmd/idiosim -exp all` for the
// full-scale tables.
package idio_test

import (
	"testing"

	"idio"
	"idio/internal/apps"
	idiocore "idio/internal/core"
	"idio/internal/experiment"
	fnet "idio/internal/net"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// The benchmarks' reduced geometry, the experiments' -quick one.
const (
	benchRing = 256
	benchMLC  = 256 << 10
	benchLLC  = 768 << 10
)

// BenchmarkExperiment regenerates each catalogue entry's -quick output
// per iteration, serially: Figs. 4, 5 and 9-14, the ablations and the
// fabric studies. Its sub-benchmarks are named after the entries
// (`-bench 'Experiment/fig9'`).
func BenchmarkExperiment(b *testing.B) {
	for _, s := range experiment.Catalogue {
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if o := experiment.RunAll([]experiment.Sweep{s}, experiment.Env{Quick: true, Parallelism: 1})[0]; o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		})
	}
}

// BenchmarkPacketLifecycle measures raw harness throughput on the
// steady-state packet loop: the Fig. 9 system (scaled caches, IDIO
// policy) under steady 50 Gbps per-core load with the TouchDrop NF,
// exercising the full generate → NIC RX → DMA → service → free
// lifecycle. It reports wall-clock ns per simulated packet and
// simulated packets per wall second — the harness-scaling headline —
// and -benchmem's allocs/op divided by the packet count gives
// allocs/packet.
func BenchmarkPacketLifecycle(b *testing.B) {
	const perCore = 4096
	var rx uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := idio.DefaultConfig(2)
		cfg.Hier.MLCSize = benchMLC
		cfg.Hier.LLCSize = benchLLC
		cfg.NIC.RingSize = benchRing
		cfg.Policy = idiocore.PolicyIDIO
		sys := idio.NewSystem(cfg)
		for c := 0; c < cfg.NumCores(); c++ {
			flow := sys.DefaultFlow(c)
			sys.AddNF(c, apps.TouchDrop{}, flow)
			traffic.Steady{
				Flow:    flow,
				RateBps: traffic.Gbps(10), // under the ~20 Gbps/core service capacity: no drops
				Count:   perCore,
			}.Install(sys.Sim, sys.NIC)
		}
		res := sys.RunUntilIdle(50 * sim.Millisecond)
		rx = res.NIC.RxPackets
	}
	b.StopTimer()
	if rx > 0 && b.N > 0 {
		nsPerPkt := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(rx)
		b.ReportMetric(nsPerPkt, "ns/pkt")
		b.ReportMetric(1e3/nsPerPkt, "Mpkts/wallsec")
	}
}

// BenchmarkMillionFlowSteadyState measures the per-request cost of the
// million-flow engine: one million concurrent flows resident in the
// compact flow table, one hashed timer wheel carrying every deadline,
// and the full fabric round trip per request. Setup (admitting the
// population, arming a million timers) happens before the timer; one
// op is one answered request out of the steady churn, and ns/req is
// the headline — it must not grow with the resident population.
func BenchmarkMillionFlowSteadyState(b *testing.B) {
	ccfg := idio.DefaultClusterConfig(1, 1)
	ccfg.Host.Hier.MLCSize = benchMLC
	ccfg.Host.Hier.LLCSize = benchLLC
	ccfg.Host.NIC.RingSize = benchRing
	ccfg.Host.Policy = idiocore.PolicyIDIO
	ccfg.Host.Hier.TimelineBucket = 0
	cl, err := idio.NewCluster(ccfg)
	if err != nil {
		b.Fatalf("NewCluster: %v", err)
	}
	cl.DUT.AddNF(0, apps.L2Fwd{}, cl.DUT.DefaultFlow(0))
	// A million flows thinking 2s each offer ~500k requests/s. The
	// derived wheel span (131072 slots x 64us = 8.4s) covers four mean
	// think times, so long deadlines are almost never re-inspected.
	c := cl.AddChurnClient(0, fnet.ChurnConfig{
		Flows:    1_000_000,
		Requests: 1 << 62,
		Think:    2 * sim.Second,
		Seed:     11,
	})
	cl.Start()
	now := sim.Time(4 * sim.Millisecond)
	cl.Sim.RunUntil(now)
	warm := c.Responses()
	if warm == 0 {
		b.Fatal("warm-up answered no requests")
	}
	b.ReportAllocs()
	b.ResetTimer()
	const step = 500 * sim.Microsecond
	target := warm + uint64(b.N)
	for c.Responses() < target {
		now = now.Add(step)
		cl.Sim.RunUntil(now)
	}
	b.StopTimer()
	reqs := c.Responses() - warm
	if reqs > 0 {
		nsPerReq := float64(b.Elapsed().Nanoseconds()) / float64(reqs)
		b.ReportMetric(nsPerReq, "ns/req")
	}
}
