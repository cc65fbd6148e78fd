package experiment

import (
	idiocore "idio/internal/core"
	"idio/internal/scenario"
	"idio/internal/sim"
	"idio/internal/stats"
)

// Fig11Result compares DDIO and IDIO running the shallow zero-copy
// L2Fwd NF (1024-byte packets), plus the selective-direct-DRAM variant
// where the application drops payloads (class 1).
type Fig11Result struct {
	DDIO Fig9Cell
	IDIO Fig9Cell

	// DirectDRAM summarises the L2FwdDropPayload + class-1 run: the
	// paper expects LLC writeback rate and DRAM write bandwidth equal
	// to the RX bandwidth.
	DirectDRAM struct {
		Summary       BurstSummary
		RxGbps        float64
		DRAMWriteGbps float64
	}
}

// Fig11Opts parameterises the shallow-NF comparison.
type Fig11Opts struct {
	RingSize  int
	FrameLen  int
	BurstGbps float64
	Horizon   sim.Duration
	// Parallelism bounds the worker pool running the three
	// configurations (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// DefaultFig11Opts mirrors Fig. 11: 1024-entry rings, 1024-byte
// packets.
func DefaultFig11Opts() Fig11Opts {
	return Fig11Opts{RingSize: 1024, FrameLen: 1024, BurstGbps: 25, Horizon: 9 * sim.Millisecond}
}

// Fig11 runs the three configurations.
func Fig11(opts Fig11Opts) Fig11Result {
	desc := func(pol idiocore.Policy, app string, dscp uint8) scenario.Desc {
		d := gem5NFs(pol, Geometry{RingSize: opts.RingSize}, false)
		for i := range d.NFs {
			d.NFs[i].App, d.NFs[i].FrameLen, d.NFs[i].DSCP = app, opts.FrameLen, dscp
		}
		return d
	}
	var out Fig11Result
	RunTasks(opts.Parallelism,
		func() { out.DDIO = runBurstCell(desc(idiocore.PolicyDDIO, "L2Fwd", 0), opts.BurstGbps, opts.Horizon) },
		func() { out.IDIO = runBurstCell(desc(idiocore.PolicyIDIO, "L2Fwd", 0), opts.BurstGbps, opts.Horizon) },
		func() {
			// Direct-DRAM variant: class-1 (DSCP 46) flows + payload-
			// dropping app.
			d := desc(idiocore.PolicyIDIO, "L2FwdDropPayload", 46)
			d.Host.Classifier.ClassOneDSCPs = []uint8{46}
			_, res := runBurst(d, opts.BurstGbps, opts.Horizon)
			out.DirectDRAM.Summary = summaryOf(res)
			span := res.Now.Sub(0)
			out.DirectDRAM.RxGbps = stats.Gbps(res.NIC.RxBytes, span)
			out.DirectDRAM.DRAMWriteGbps = stats.Gbps(res.DRAMWrites*64, span)
		})
	return out
}
