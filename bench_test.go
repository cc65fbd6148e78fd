// Benchmark harness: one benchmark per paper artifact (Table I and
// Figs. 4, 5, 9-14). Each benchmark regenerates its figure at reduced
// scale per iteration (256-entry rings, proportionally scaled caches)
// so `go test -bench=.` finishes in minutes, and reports the figure's
// headline quantity as a custom metric alongside ns/op. Run
// `go run ./cmd/idiosim -exp all` for the full-scale tables.
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

const (
	benchRing = 256
	benchMLC  = 256 << 10
	benchLLC  = 768 << 10
)

// BenchmarkFig4 regenerates the MLC/DRAM leak characterization
// (Fig. 4): writeback- vs invalidation-dominated regimes by ring size.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := experiment.Fig4Opts{
			Rings:       []int{64, benchRing},
			Loads:       map[string]float64{"med": 2, "high": 8},
			RingCycles:  5,
			OneWayRings: []int{benchRing},
			MLCSize:     benchMLC,
			LLCSize:     benchLLC,
		}
		rows := experiment.Fig4(opts)
		if i == b.N-1 {
			var large, oneWay experiment.Fig4Row
			for _, r := range rows {
				if r.Ring == benchRing && r.Load == "high" {
					if r.OneWay {
						oneWay = r
					} else {
						large = r
					}
				}
			}
			b.ReportMetric(large.NormMLCWB, "mlcWB/rxBW")
			// The unpartitioned LLC absorbs the writebacks (DMA
			// bloating); the 1-way partition exposes them as DRAM
			// writes — report the partitioned figure.
			b.ReportMetric(oneWay.DRAMWriteGbps, "dramWrGbps_1way")
		}
	}
}

// BenchmarkFig5 regenerates the bursty-traffic writeback timeline
// (Fig. 5) under baseline DDIO.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig5(experiment.Fig5Opts{
			RingSize: benchRing, NumBursts: 2, BurstGbps: 25,
			Horizon: 25 * sim.Millisecond, MLCSize: benchMLC, LLCSize: benchLLC,
		})
		if i == b.N-1 {
			b.ReportMetric(float64(res.TotalMLCWB), "mlcWB")
			b.ReportMetric(float64(res.TotalLLCWB), "llcWB")
		}
	}
}

// BenchmarkFig9 regenerates the per-mechanism burst comparison
// (Fig. 9): DDIO / Invalidate / Prefetch / Static / IDIO at 100 and
// 25 Gbps.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiment.Fig9(experiment.Fig9Opts{
			RingSize: benchRing,
			Rates:    []float64{100, 25},
			Policies: []idiocore.Policy{
				idiocore.PolicyDDIO, idiocore.PolicyInvalidate, idiocore.PolicyPrefetch,
				idiocore.PolicyStatic, idiocore.PolicyIDIO,
			},
			Horizon: 9 * sim.Millisecond,
			MLCSize: benchMLC, LLCSize: benchLLC,
		})
		if i == b.N-1 {
			var ddio, idio float64
			for _, c := range cells {
				if c.RateGbps == 100 && c.Policy == idiocore.PolicyDDIO {
					ddio = float64(c.Summary.MLCWB)
				}
				if c.RateGbps == 100 && c.Policy == idiocore.PolicyIDIO {
					idio = float64(c.Summary.MLCWB)
				}
			}
			if ddio > 0 {
				b.ReportMetric(100*(1-idio/ddio), "mlcWBreduction%@100G")
			}
		}
	}
}

// BenchmarkFig10 regenerates the normalized Static/IDIO comparison
// including the co-running antagonist (Fig. 10).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig10(experiment.Fig10Opts{
			RingSize: benchRing, Rates: []float64{100, 25, 10},
			Horizon: 9 * sim.Millisecond, CoRun: true,
			MLCSize: benchMLC, LLCSize: benchLLC,
		})
		if i == b.N-1 {
			for _, r := range rows {
				if r.Config == "IDIO" && r.RateGbps == 25 {
					b.ReportMetric(r.NormMLCWB, "idioMLCWB/ddio@25G")
					b.ReportMetric(r.NormExeTime, "idioExe/ddio@25G")
				}
			}
		}
	}
}

// BenchmarkFig11 regenerates the shallow-NF (L2Fwd) comparison and
// the selective-direct-DRAM variant (Fig. 11).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig11(experiment.Fig11Opts{
			RingSize: benchRing, FrameLen: 1024, BurstGbps: 25,
			Horizon: 9 * sim.Millisecond,
		})
		if i == b.N-1 {
			b.ReportMetric(float64(res.DDIO.Summary.LLCWB), "ddioLLCWB")
			b.ReportMetric(float64(res.IDIO.Summary.LLCWB), "idioLLCWB")
			b.ReportMetric(res.DirectDRAM.DRAMWriteGbps, "directDramWrGbps")
		}
	}
}

// BenchmarkFig12 regenerates the p50/p99 latency comparison (Fig. 12).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig12(experiment.Fig12Opts{
			RingSize: benchRing, Rates: []float64{100, 25, 10},
			Horizon: 9 * sim.Millisecond,
		})
		if i == b.N-1 {
			for _, r := range rows {
				if r.Policy == "IDIO" && !r.CoRun && r.RateGbps == 25 {
					b.ReportMetric(r.NormP99, "idioP99/ddio@25G")
				}
			}
		}
	}
}

// BenchmarkFig13 regenerates the steady-traffic comparison (Fig. 13).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig13(experiment.Fig13Opts{
			RingSize: benchRing, Gbps: 10, Packets: 2048,
			Horizon: 10 * sim.Millisecond, MLCSize: benchMLC, LLCSize: benchLLC,
		})
		if i == b.N-1 {
			if res.DDIO.Summary.MLCWB > 0 {
				b.ReportMetric(100*(1-float64(res.IDIO.Summary.MLCWB)/float64(res.DDIO.Summary.MLCWB)),
					"mlcWBreduction%")
			}
		}
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

// BenchmarkFig14 regenerates the mlcTHR sensitivity sweep (Fig. 14).
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig14(experiment.Fig14Opts{
			RingSize: benchRing, RateGbps: 100,
			THRs:    []uint64{10, 25, 50, 75, 100},
			Horizon: 9 * sim.Millisecond, MLCSize: benchMLC, LLCSize: benchLLC,
		})
		if i == b.N-1 {
			worst := 0.0
			for _, r := range rows {
				if r.NormMLCWB > worst {
					worst = r.NormMLCWB
				}
			}
			b.ReportMetric(worst, "worstNormMLCWB")
		}
	}
}
