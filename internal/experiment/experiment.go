// Package experiment regenerates every quantitative figure of the
// paper's analysis (Fig. 4, 5) and evaluation (Fig. 9-14). Each FigN
// function describes the runs the paper describes (scenario.Desc),
// builds and runs them with scenario.Build, and returns structured
// rows/series mirroring what the figure reports; render.go formats
// them as ASCII tables and CSV for inspection.
//
// The experiments are parameterised by an options struct whose
// Default* constructor reproduces the paper's setup; tests shrink the
// parameters to keep runtimes small without changing the physics.
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

// Geometry scales the DUT for reduced-size runs: ring entries and
// cache bytes, 0 keeping the gem5-scale default. Scaled-down runs
// shrink MLC and LLC together with the ring so capacity ratios (ring
// footprint vs. MLC, DDIO ways vs. burst) match the full-size run.
type Geometry struct {
	RingSize int
	MLCSize  int
	LLCSize  int
}

// gem5Host is the DUT every experiment starts from: the Table I host
// with cores cores under pol, the LLC scaled to the gem5 setup's 3 MB
// (Sec. III / Fig. 5), and g applied.
func gem5Host(pol idiocore.Policy, cores int, g Geometry) idio.Config {
	cfg := idio.DefaultConfig(cores)
	cfg.Policy = pol
	cfg.Hier.LLCSize = 3 << 20
	g.apply(&cfg)
	return cfg
}

// apply sets g's non-zero sizes on cfg.
func (g Geometry) apply(cfg *idio.Config) {
	if g.RingSize > 0 {
		cfg.NIC.RingSize = g.RingSize
	}
	if g.MLCSize > 0 {
		cfg.Hier.MLCSize = g.MLCSize
	}
	if g.LLCSize > 0 {
		cfg.Hier.LLCSize = g.LLCSize
	}
}

// link100G is the 100 GbE, 2 µs fabric link of idio.DefaultClusterConfig.
var link100G = idio.DefaultClusterConfig(1, 1).ClientLink

// echoCluster describes the fabric experiments' run: gem5Host behind a
// switch with clients client slots on link (client and server side
// alike), an L2Fwd NF echoing requests on every core. It has no
// clients yet.
func echoCluster(pol idiocore.Policy, cores int, g Geometry, clients int, link fnet.LinkConfig) scenario.Desc {
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
func gem5NFs(pol idiocore.Policy, g Geometry, antagonist bool) scenario.Desc {
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

// build wires d; a description an experiment wrote is a program bug
// if it does not build.
func build(d scenario.Desc) *scenario.Rig {
	r, err := scenario.Build(d)
	if err != nil {
		panic(err)
	}
	return r
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
