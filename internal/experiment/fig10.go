package experiment

import (
	"fmt"

	idiocore "idio/internal/core"
	"idio/internal/sim"
)

// Fig10Row is one configuration group of Fig. 10: Static or IDIO stats
// normalized to baseline DDIO for the same scenario (lower is better),
// including the co-running-antagonist variant.
type Fig10Row struct {
	Config   string // "Static" | "IDIO" | "IDIO+Antagonist"
	RateGbps float64

	NormMLCWB   float64
	NormLLCWB   float64
	NormDRAMRd  float64
	NormDRAMWr  float64
	NormExeTime float64
	// AntagonistCPIGain is (CPI_DDIO - CPI_IDIO)/CPI_DDIO for co-run
	// rows; zero otherwise.
	AntagonistCPIGain float64
}

// Fig10Opts parameterises the normalized comparison.
type Fig10Opts struct {
	Geometry
	Rates   []float64
	Horizon sim.Duration
	// CoRun enables the TouchDrop.IDIO + LLCAntagonist rows.
	CoRun bool
	// Parallelism bounds the worker pool running independent cells
	// (0 = GOMAXPROCS, 1 = serial). Results are independent of the
	// setting.
	Parallelism int
}

// DefaultFig10Opts reproduces Fig. 10: 100/25/10 Gbps, Static and
// dynamic IDIO, plus the co-run scenario.
func DefaultFig10Opts() Fig10Opts {
	return Fig10Opts{
		Geometry: Geometry{RingSize: 1024},
		Rates:    []float64{100, 25, 10},
		Horizon:  9 * sim.Millisecond,
		CoRun:    true,
	}
}

// Fig10 runs the normalized comparison. Every raw run — including the
// per-rate DDIO baselines the other cells normalize against — is an
// independent cell, so the whole grid fans out at once; normalization
// happens afterwards over the index-addressed results.
func Fig10(opts Fig10Opts) []Fig10Row {
	type cell struct {
		rate       float64
		pol        idiocore.Policy
		antagonist bool
	}
	perRate := 3 // DDIO base, Static, IDIO
	if opts.CoRun {
		perRate = 5 // + DDIO+ant base, IDIO+ant
	}
	var cells []cell
	for _, rate := range opts.Rates {
		cells = append(cells,
			cell{rate, idiocore.PolicyDDIO, false},
			cell{rate, idiocore.PolicyStatic, false},
			cell{rate, idiocore.PolicyIDIO, false})
		if opts.CoRun {
			cells = append(cells,
				cell{rate, idiocore.PolicyDDIO, true},
				cell{rate, idiocore.PolicyIDIO, true})
		}
	}
	sums := RunCells(opts.Parallelism, cells, func(c cell) BurstSummary {
		return runBurstCell(gem5NFs(c.pol, opts.Geometry, c.antagonist), c.rate, opts.Horizon).Summary
	})
	var rows []Fig10Row
	for ri, rate := range opts.Rates {
		s := sums[ri*perRate:]
		base := s[0]
		rows = append(rows,
			normalize(idiocore.PolicyStatic.Name(), rate, s[1], base),
			normalize(idiocore.PolicyIDIO.Name(), rate, s[2], base))
		if opts.CoRun {
			baseCo, co := s[3], s[4]
			row := normalize("IDIO+Antagonist", rate, co, baseCo)
			// Both runs must have exited the antagonist's warm-up
			// window for the CPI comparison to be meaningful.
			if baseCo.AntagonistCPI > 0 && co.AntagonistCPI > 0 {
				row.AntagonistCPIGain = (baseCo.AntagonistCPI - co.AntagonistCPI) / baseCo.AntagonistCPI
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func normalize(name string, rate float64, s, base BurstSummary) Fig10Row {
	return Fig10Row{
		Config:      name,
		RateGbps:    rate,
		NormMLCWB:   ratio(float64(s.MLCWB), float64(base.MLCWB)),
		NormLLCWB:   ratio(float64(s.LLCWB), float64(base.LLCWB)),
		NormDRAMRd:  ratio(float64(s.DRAMReads), float64(base.DRAMReads)),
		NormDRAMWr:  ratio(float64(s.DRAMWrites), float64(base.DRAMWrites)),
		NormExeTime: ratio(s.ExeTimeUS, base.ExeTimeUS),
	}
}

// Fig10Header describes the table columns.
func Fig10Header() []string {
	return []string{"rate", "config", "MLCWB", "LLCWB", "DRAMrd", "DRAMwr", "ExeTime", "antCPI gain"}
}

// Row renders one row (values normalized to DDIO; lower is better).
func (r Fig10Row) Row() []string {
	f := func(v float64) string {
		if v < 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", v)
	}
	return []string{
		fmt.Sprintf("%.0fG", r.RateGbps), r.Config,
		f(r.NormMLCWB), f(r.NormLLCWB), f(r.NormDRAMRd), f(r.NormDRAMWr), f(r.NormExeTime),
		fmt.Sprintf("%.1f%%", r.AntagonistCPIGain*100),
	}
}
