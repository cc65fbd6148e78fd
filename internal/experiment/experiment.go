// Package experiment regenerates every quantitative figure of the
// paper's analysis (Fig. 4, 5) and evaluation (Fig. 9-14), plus the
// ablations, baselines and fabric studies around them.
//
// Each catalogue entry is a Sweep: data, not code. A sweep lists its
// cells, each a set of table labels and a complete scenario.Desc built
// from gem5NFs or echoCluster and edited per axis value, with the
// full-scale and -quick values side by side. A cell may name a
// reference cell (the DDIO baseline normalized columns divide by) and
// an arm hook that schedules probes on the built rig. The sweep's
// columns project each finished run, alone or against its reference,
// into table cells; a few entries print summary lines instead. One
// engine builds, arms and runs every cell of every selected entry in
// one worker pool, and renders the text and CSV side files.
package experiment

import (
	"idio"
	idiocore "idio/internal/core"
	fnet "idio/internal/net"
	"idio/internal/scenario"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// geometry scales the DUT for reduced-size runs: ring entries and
// cache bytes, 0 keeping the gem5-scale default. Scaled-down runs
// shrink MLC and LLC together with the ring so capacity ratios (ring
// footprint vs. MLC, DDIO ways vs. burst) match the full-size run.
type geometry struct{ ring, mlc, llc int }

// The -quick geometry: 256-entry rings with the caches scaled 4x down.
// Every entry's -quick cells and Verify's reduced-scale claims use it.
const (
	quickRing = 256
	quickMLC  = 256 << 10
	quickLLC  = 768 << 10
)

var (
	fullGeometry  = geometry{ring: 1024}
	quickGeometry = geometry{quickRing, quickMLC, quickLLC}
)

// apply sets g's non-zero sizes on cfg.
func (g geometry) apply(cfg *idio.Config) {
	if g.ring > 0 {
		cfg.NIC.RingSize = g.ring
	}
	if g.mlc > 0 {
		cfg.Hier.MLCSize = g.mlc
	}
	if g.llc > 0 {
		cfg.Hier.LLCSize = g.llc
	}
}

// gem5Host is the DUT every experiment starts from: the Table I host
// with cores cores under pol, the LLC scaled to the gem5 setup's 3 MB
// (Sec. III / Fig. 5), and g applied.
func gem5Host(pol idiocore.Policy, cores int, g geometry) idio.Config {
	cfg := idio.DefaultConfig(cores)
	cfg.Policy = pol
	cfg.Hier.LLCSize = 3 << 20
	g.apply(&cfg)
	return cfg
}

// link100G is the 100 GbE, 2 µs fabric link of idio.DefaultClusterConfig.
var link100G = idio.DefaultClusterConfig(1, 1).ClientLink

// echoCluster describes the fabric experiments' run: gem5Host behind a
// switch with clients client slots on link (client and server side
// alike), an L2Fwd NF echoing requests on every core. It has no
// clients yet.
func echoCluster(pol idiocore.Policy, cores int, g geometry, clients int, link fnet.LinkConfig) scenario.Desc {
	d := scenario.Desc{
		Host:   gem5Host(pol, cores, g),
		Fabric: &scenario.Fabric{Clients: clients, ClientLink: link, ServerLink: link},
	}
	for core := 0; core < cores; core++ {
		d.NFs = append(d.NFs, scenario.NFDesc{Core: core, App: "L2Fwd"})
	}
	return d
}

// gem5NFs describes the Sec. VI gem5 run: two TouchDrop NFs on
// 1514-byte frames, plus, with antagonist, the LLC antagonist on a
// third core with a 256 KB MLC and a 2 MB buffer. It has no traffic
// yet (see burst and steady).
func gem5NFs(pol idiocore.Policy, g geometry, antagonist bool) scenario.Desc {
	cores := 2
	if antagonist {
		cores++
	}
	d := scenario.Desc{Host: gem5Host(pol, cores, g)}
	for core := 0; core < 2; core++ {
		d.NFs = append(d.NFs, scenario.NFDesc{Core: core, App: "TouchDrop", FrameLen: 1514})
	}
	if antagonist {
		d.Antagonist = &scenario.Antagonist{Core: 2, BufKB: 2 << 10, MLCKB: 256}
	}
	return d
}

// burst gives every NF n synchronized bursts at gbps, 10 ms apart, of
// exactly ring-size packets each (Sec. VI's construction).
func burst(d *scenario.Desc, gbps float64, n int) {
	for i := range d.NFs {
		d.NFs[i].Bursty = &traffic.Bursty{
			BurstRateBps:    traffic.Gbps(gbps),
			Period:          10 * sim.Millisecond,
			PacketsPerBurst: d.Host.NIC.RingSize,
			NumBursts:       n,
		}
	}
}

// oneBurst is the Fig. 9 run of d: one burst at gbps, run until idle
// within 9 ms. Figs. 10-12 and 14, the ablations, the baselines, the
// breakdown and the host degradation cells all run it.
func oneBurst(d scenario.Desc, gbps float64) scenario.Desc {
	burst(&d, gbps, 1)
	d.Horizon, d.UntilIdle = 9*sim.Millisecond, true
	return d
}

// steady gives every NF count packets at a steady gbps.
func steady(d *scenario.Desc, gbps float64, count uint64) {
	for i := range d.NFs {
		d.NFs[i].Steady = &traffic.Steady{RateBps: traffic.Gbps(gbps), Count: count}
	}
}

// armWatchdog arms the simulator's no-progress/event-storm detector, so
// a livelock surfaces as a structured abort instead of a hang.
func armWatchdog(cfg *idio.Config) {
	wd := sim.DefaultWatchdogConfig()
	cfg.Watchdog = &wd
}

// Series is a named timeline in the units the paper plots (MTPS per
// 10 µs bucket by default).
type Series struct {
	Name   string
	Points []stats.SeriesPoint
}

// seriesOf snapshots a timeline (nil-safe).
func seriesOf(name string, tl *stats.Timeline) Series {
	if tl == nil {
		return Series{Name: name}
	}
	return Series{Name: name, Points: tl.Series()}
}

// timelines are a run's MLC and LLC writeback timelines, plus, with
// dma, its DMA request rate.
func timelines(r *run, dma bool) []Series {
	s := []Series{seriesOf("mlcWB", r.res.MLCWBTL), seriesOf("llcWB", r.res.LLCWBTL)}
	if dma {
		s = append(s, seriesOf("dma", r.res.DMATL))
	}
	return s
}

// ratio returns a/b guarding against a zero baseline.
func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1 // both zero: no change
		}
		return -1 // undefined; callers render as n/a
	}
	return a / b
}
