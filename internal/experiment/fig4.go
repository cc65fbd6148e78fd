package experiment

import (
	"fmt"

	"idio/internal/cache"
	idiocore "idio/internal/core"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// Fig4Row is one bar group of Fig. 4: MLC writeback and invalidation
// rates normalized to the RX network bandwidth, plus DRAM read/write
// bandwidth, for a (ring size, load level[, way partition]) point
// under baseline DDIO.
type Fig4Row struct {
	Ring   int
	Load   string // "low" | "med" | "high"
	Gbps   float64
	OneWay bool // "_1way" LLC partition variant

	// NormMLCWB and NormMLCInval are MLC writeback / invalidation
	// byte-rates normalized to the RX byte-rate (Fig. 4 left).
	NormMLCWB    float64
	NormMLCInval float64
	// DRAM bandwidths in Gbps (Fig. 4 right).
	DRAMReadGbps  float64
	DRAMWriteGbps float64
}

// Fig4Opts parameterises the experiment.
type Fig4Opts struct {
	Rings []int
	// Loads are per-NF steady rates in Gbps. The paper's low/med/high
	// on the physical host are 8 Mbps / 1 Gbps / 20 Gbps.
	Loads map[string]float64
	// RingCycles controls how many times the DMA ring is cycled (the
	// steady-state the figure measures).
	RingCycles int
	// OneWayRings lists ring sizes additionally run with the
	// single-way LLC partition ("_1way" in Fig. 4 right).
	OneWayRings []int
	// MLCSize/LLCSize scale the caches for reduced-size runs.
	MLCSize int
	LLCSize int
	// Parallelism bounds the worker pool running independent sweep
	// cells (0 = GOMAXPROCS, 1 = serial). Results are independent of
	// the setting.
	Parallelism int
}

// DefaultFig4Opts reproduces the figure's sweep. The paper's loads are
// aggregate over ten NF instances (8 Mbps / 1 Gbps / 20 Gbps); with
// two NFs the same aggregates give per-NF rates of 4 Mbps / 500 Mbps /
// 10 Gbps. "low" is scaled to 50 Mbps per NF to keep simulated time
// sane; it sits in the same regime (each packet is fully consumed long
// before the next arrives). All loads keep the cores unsaturated, as
// in the figure — the ring cycles because the NIC head laps it, not
// because the CPU falls behind.
func DefaultFig4Opts() Fig4Opts {
	return Fig4Opts{
		Rings:       []int{64, 1024, 2048},
		Loads:       map[string]float64{"low": 0.05, "med": 0.5, "high": 10},
		RingCycles:  3,
		OneWayRings: []int{1024, 2048},
	}
}

// fig4Cell names one sweep point.
type fig4Cell struct {
	ring   int
	load   string
	gbps   float64
	oneWay bool
}

// Fig4 runs the sweep and returns rows ordered ring-major.
func Fig4(opts Fig4Opts) []Fig4Row {
	var cells []fig4Cell
	for _, ring := range opts.Rings {
		for _, load := range []string{"low", "med", "high"} {
			gbps, ok := opts.Loads[load]
			if !ok {
				continue
			}
			cells = append(cells, fig4Cell{ring: ring, load: load, gbps: gbps})
		}
	}
	for _, ring := range opts.OneWayRings {
		cells = append(cells, fig4Cell{ring: ring, load: "high", gbps: opts.Loads["high"], oneWay: true})
	}
	return RunCells(opts.Parallelism, cells, func(c fig4Cell) Fig4Row {
		return fig4Point(opts, c.ring, c.load, c.gbps, c.oneWay)
	})
}

func fig4Point(opts Fig4Opts, ring int, load string, gbps float64, oneWay bool) Fig4Row {
	d := gem5NFs(idiocore.PolicyDDIO, Geometry{RingSize: ring, MLCSize: opts.MLCSize, LLCSize: opts.LLCSize}, false)
	if oneWay {
		// Confine the application's LLC fills to a single non-DDIO way
		// (way 2), leaving the 2 DDIO ways untouched.
		d.Host.Hier.AppWayMask = cache.WayMask(1 << 2)
	}
	count := uint64(opts.RingCycles * ring)
	steady(&d, gbps, count)
	// Horizon: stream duration plus generous drain time.
	gap := traffic.InterArrival(traffic.Gbps(gbps), d.NFs[0].FrameLen)
	d.Horizon = sim.Duration(int64(gap)*int64(count)) + 50*sim.Millisecond
	d.UntilIdle = true
	res := build(d).Run()

	rxBytes := float64(res.NIC.RxBytes)
	wbBytes := float64(res.Hier.MLCWriteback * 64)
	invBytes := float64(res.Hier.MLCInval * 64)
	span := res.Now.Sub(0)
	return Fig4Row{
		Ring: ring, Load: load, Gbps: gbps, OneWay: oneWay,
		NormMLCWB:     ratio(wbBytes, rxBytes),
		NormMLCInval:  ratio(invBytes, rxBytes),
		DRAMReadGbps:  stats.Gbps(res.DRAMReads*64, span),
		DRAMWriteGbps: stats.Gbps(res.DRAMWrites*64, span),
	}
}

// Fig4Header describes the table columns.
func Fig4Header() []string {
	return []string{"ring", "load", "1way", "MLCWB/RX", "MLCInval/RX", "DRAMrd Gbps", "DRAMwr Gbps"}
}

// Row renders one row for the table writer.
func (r Fig4Row) Row() []string {
	return []string{
		fmt.Sprintf("%d", r.Ring), r.Load, fmt.Sprintf("%v", r.OneWay),
		fmt.Sprintf("%.2f", r.NormMLCWB), fmt.Sprintf("%.2f", r.NormMLCInval),
		fmt.Sprintf("%.2f", r.DRAMReadGbps), fmt.Sprintf("%.2f", r.DRAMWriteGbps),
	}
}
