package experiment

import (
	"fmt"

	idiocore "idio/internal/core"
	"idio/internal/sim"
)

// Fig14Row is one sweep point of Fig. 14: IDIO's Fig. 10 statistics at
// 100 Gbps under a given mlcTHR value, normalized to baseline DDIO.
type Fig14Row struct {
	THRMTPS     uint64
	NormMLCWB   float64
	NormLLCWB   float64
	NormDRAMRd  float64
	NormDRAMWr  float64
	NormExeTime float64
}

// Fig14Opts parameterises the sensitivity sweep.
type Fig14Opts struct {
	Geometry
	RateGbps float64
	// THRs are mlcTHR values in MTPS (writebacks per µs).
	THRs    []uint64
	Horizon sim.Duration
	// Parallelism bounds the worker pool running independent sweep
	// points (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// DefaultFig14Opts mirrors Fig. 14: mlcTHR from 10 to 100 MTPS at the
// 100 Gbps burst rate (the paper shows only 100 Gbps because lower
// rates are insensitive).
func DefaultFig14Opts() Fig14Opts {
	return Fig14Opts{
		Geometry: Geometry{RingSize: 1024},
		RateGbps: 100,
		THRs:     []uint64{10, 25, 50, 75, 100},
		Horizon:  9 * sim.Millisecond,
	}
}

// Fig14 runs the sweep.
func Fig14(opts Fig14Opts) []Fig14Row {
	// Cell 0 is the DDIO baseline; cells 1..n are the IDIO sweep
	// points. All fan out together; normalization follows.
	type cell struct {
		pol idiocore.Policy
		thr uint64
	}
	cells := make([]cell, 0, len(opts.THRs)+1)
	cells = append(cells, cell{pol: idiocore.PolicyDDIO})
	for _, thr := range opts.THRs {
		cells = append(cells, cell{pol: idiocore.PolicyIDIO, thr: thr})
	}
	sums := RunCells(opts.Parallelism, cells, func(c cell) BurstSummary {
		d := gem5NFs(c.pol, opts.Geometry, false)
		if c.thr > 0 {
			d.Host.Controller.MLCTHR = c.thr
		}
		return runBurstCell(d, opts.RateGbps, opts.Horizon).Summary
	})
	base := sums[0]
	var rows []Fig14Row
	for i, thr := range opts.THRs {
		s := sums[i+1]
		rows = append(rows, Fig14Row{
			THRMTPS:     thr,
			NormMLCWB:   ratio(float64(s.MLCWB), float64(base.MLCWB)),
			NormLLCWB:   ratio(float64(s.LLCWB), float64(base.LLCWB)),
			NormDRAMRd:  ratio(float64(s.DRAMReads), float64(base.DRAMReads)),
			NormDRAMWr:  ratio(float64(s.DRAMWrites), float64(base.DRAMWrites)),
			NormExeTime: ratio(s.ExeTimeUS, base.ExeTimeUS),
		})
	}
	return rows
}

// Fig14Header describes the table columns.
func Fig14Header() []string {
	return []string{"mlcTHR", "MLCWB", "LLCWB", "DRAMrd", "DRAMwr", "ExeTime"}
}

// Row renders one row (normalized to DDIO; lower is better).
func (r Fig14Row) Row() []string {
	return []string{
		fmt.Sprintf("%d", r.THRMTPS),
		fmt.Sprintf("%.2f", r.NormMLCWB), fmt.Sprintf("%.2f", r.NormLLCWB),
		fmt.Sprintf("%.2f", r.NormDRAMRd), fmt.Sprintf("%.2f", r.NormDRAMWr),
		fmt.Sprintf("%.2f", r.NormExeTime),
	}
}
