package experiment

import (
	idiocore "idio/internal/core"
	"idio/internal/sim"
)

// Fig5Result carries the writeback timelines of Fig. 5: MLC and LLC
// writeback rates (MTPS) while two TouchDrop instances process bursty
// traffic under baseline DDIO, plus the DMA request rate used to mark
// the DMA/execution phases.
type Fig5Result struct {
	MLCWB Series
	LLCWB Series
	DMA   Series
	// Totals for assertions/summary.
	TotalMLCWB uint64
	TotalLLCWB uint64
	Processed  uint64
}

// Fig5Opts parameterises the timeline run.
type Fig5Opts struct {
	Geometry
	NumBursts int
	// BurstGbps is the per-NF burst rate; the figure's 30 ms window
	// shows multiple bursts at a rate that stresses the DDIO ways.
	BurstGbps float64
	Horizon   sim.Duration
}

// DefaultFig5Opts mirrors Fig. 5: 1024-entry rings, 1514-byte packets,
// three bursts over a 30 ms timeline.
func DefaultFig5Opts() Fig5Opts {
	return Fig5Opts{Geometry: Geometry{RingSize: 1024}, NumBursts: 3, BurstGbps: 25, Horizon: 30 * sim.Millisecond}
}

// Fig5 runs the burst timeline under baseline DDIO.
func Fig5(opts Fig5Opts) Fig5Result {
	d := gem5NFs(idiocore.PolicyDDIO, opts.Geometry, false)
	burst(&d, opts.BurstGbps, opts.NumBursts)
	d.Horizon = opts.Horizon
	res := build(d).Run()
	return Fig5Result{
		MLCWB:      seriesOf("mlcWB", res.MLCWBTL),
		LLCWB:      seriesOf("llcWB", res.LLCWBTL),
		DMA:        seriesOf("dma", res.DMATL),
		TotalMLCWB: res.Hier.MLCWriteback,
		TotalLLCWB: res.Hier.LLCWriteback,
		Processed:  res.TotalProcessed(),
	}
}
