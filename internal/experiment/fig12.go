package experiment

import (
	"fmt"

	idiocore "idio/internal/core"
	"idio/internal/sim"
)

// Fig12Row is one bar group of Fig. 12: 50th and 99th percentile
// TouchDrop latency for a (rate, policy, solo/co-run) point,
// normalized to DDIO's solo run at the same rate.
type Fig12Row struct {
	RateGbps float64
	Policy   string
	CoRun    bool
	NormP50  float64
	NormP99  float64
	// Raw values in microseconds for reference.
	P50US, P99US float64
}

// Fig12Opts parameterises the latency study.
type Fig12Opts struct {
	RingSize int
	Rates    []float64
	Horizon  sim.Duration
	// Parallelism bounds the worker pool running independent cells
	// (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// DefaultFig12Opts mirrors Fig. 12: 1514-byte packets, 1024-entry
// rings, 100/25/10 Gbps, solo and co-run with the LLC antagonist.
func DefaultFig12Opts() Fig12Opts {
	return Fig12Opts{RingSize: 1024, Rates: []float64{100, 25, 10}, Horizon: 9 * sim.Millisecond}
}

// Fig12 runs the latency comparison. The four raw runs per rate
// (DDIO/IDIO × solo/co-run) are independent cells; the DDIO-solo run
// doubles as the normalization baseline once all cells return.
func Fig12(opts Fig12Opts) []Fig12Row {
	type cell struct {
		rate  float64
		pol   idiocore.Policy
		coRun bool
	}
	pols := []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO}
	var cells []cell
	for _, rate := range opts.Rates {
		for _, coRun := range []bool{false, true} {
			for _, pol := range pols {
				cells = append(cells, cell{rate: rate, pol: pol, coRun: coRun})
			}
		}
	}
	sums := RunCells(opts.Parallelism, cells, func(c cell) BurstSummary {
		return runBurstCell(gem5NFs(c.pol, Geometry{RingSize: opts.RingSize}, c.coRun), c.rate, opts.Horizon).Summary
	})
	var rows []Fig12Row
	for ri, rate := range opts.Rates {
		perRate := sums[ri*4:]
		baseSolo := perRate[0] // DDIO solo
		for i, c := range cells[ri*4 : ri*4+4] {
			if !c.coRun && c.pol == idiocore.PolicyDDIO {
				// The normalization baseline itself: still reported
				// as the 1.0 reference row.
				rows = append(rows, Fig12Row{
					RateGbps: rate, Policy: c.pol.Name(), CoRun: false,
					NormP50: 1, NormP99: 1,
					P50US: baseSolo.P50US, P99US: baseSolo.P99US,
				})
				continue
			}
			s := perRate[i]
			rows = append(rows, Fig12Row{
				RateGbps: rate, Policy: c.pol.Name(), CoRun: c.coRun,
				NormP50: ratio(s.P50US, baseSolo.P50US),
				NormP99: ratio(s.P99US, baseSolo.P99US),
				P50US:   s.P50US, P99US: s.P99US,
			})
		}
	}
	return rows
}

// Fig12Header describes the table columns.
func Fig12Header() []string {
	return []string{"rate", "policy", "corun", "p50/ddio", "p99/ddio", "p50 us", "p99 us"}
}

// Row renders one row for the table writer.
func (r Fig12Row) Row() []string {
	return []string{
		fmt.Sprintf("%.0fG", r.RateGbps), r.Policy, fmt.Sprintf("%v", r.CoRun),
		fmt.Sprintf("%.3f", r.NormP50), fmt.Sprintf("%.3f", r.NormP99),
		fmt.Sprintf("%.2f", r.P50US), fmt.Sprintf("%.2f", r.P99US),
	}
}
