package experiment

import (
	idiocore "idio/internal/core"
	"idio/internal/sim"
)

// Fig13Result compares DDIO and IDIO under steady (non-bursty)
// traffic: two TouchDrop instances each receiving a constant 10 Gbps
// (20 Gbps total), 1024-entry rings, 1514-byte packets.
type Fig13Result struct {
	DDIO Fig13Run
	IDIO Fig13Run
}

// Fig13Run is one policy's steady-state outcome.
type Fig13Run struct {
	MLCWB     Series
	LLCWB     Series
	Summary   BurstSummary
	RxPackets uint64
}

// Fig13Opts parameterises the steady-traffic run.
type Fig13Opts struct {
	Geometry
	Gbps    float64 // per NF
	Packets uint64  // per NF
	Horizon sim.Duration
	// Parallelism bounds the worker pool running the two policies
	// (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// DefaultFig13Opts mirrors Fig. 13: 10 Gbps per TouchDrop. The paper
// notes drops appear above ~12 Gbps per core, so 10 Gbps is just
// below saturation.
func DefaultFig13Opts() Fig13Opts {
	return Fig13Opts{Geometry: Geometry{RingSize: 1024}, Gbps: 10, Packets: 8192, Horizon: 40 * sim.Millisecond}
}

// Fig13 runs both policies concurrently.
func Fig13(opts Fig13Opts) Fig13Result {
	run := func(pol idiocore.Policy) Fig13Run {
		d := gem5NFs(pol, opts.Geometry, false)
		steady(&d, opts.Gbps, opts.Packets)
		d.Horizon, d.UntilIdle = opts.Horizon, true
		res := build(d).Run()
		return Fig13Run{
			MLCWB:     seriesOf("mlcWB", res.MLCWBTL),
			LLCWB:     seriesOf("llcWB", res.LLCWBTL),
			Summary:   summaryOf(res),
			RxPackets: res.NIC.RxPackets,
		}
	}
	var out Fig13Result
	RunTasks(opts.Parallelism,
		func() { out.DDIO = run(idiocore.PolicyDDIO) },
		func() { out.IDIO = run(idiocore.PolicyIDIO) })
	return out
}
