package experiment

import (
	"fmt"

	"idio"
	idiocore "idio/internal/core"
	"idio/internal/scenario"
	"idio/internal/sim"
)

// Fig9Cell is one subplot of Fig. 9: MLC/LLC writeback and DMA request
// rate timelines for one (policy, burst rate) pair processing a single
// burst of two TouchDrop instances, plus the aggregate counts Fig. 10
// normalizes.
type Fig9Cell struct {
	Policy   idiocore.Policy
	RateGbps float64
	MLCWB    Series
	LLCWB    Series
	DMA      Series
	Summary  BurstSummary
}

// BurstSummary is the aggregate outcome of processing one burst.
type BurstSummary struct {
	MLCWB      uint64
	LLCWB      uint64
	DRAMReads  uint64
	DRAMWrites uint64
	ExeTimeUS  float64
	P50US      float64
	P99US      float64
	Processed  uint64
	Drops      uint64
	// AntagonistCPI is non-zero for co-run scenarios.
	AntagonistCPI float64
}

// Fig9Opts parameterises the per-mechanism burst comparison.
type Fig9Opts struct {
	Geometry
	Rates    []float64 // per-NF burst rates in Gbps
	Policies []idiocore.Policy
	Horizon  sim.Duration
	// Parallelism bounds the worker pool running independent grid
	// cells (0 = GOMAXPROCS, 1 = serial). Results are independent of
	// the setting.
	Parallelism int
}

// DefaultFig9Opts reproduces Fig. 9: {DDIO, Invalidate, Prefetch,
// Static, IDIO} at 100 and 25 Gbps, 1024-entry rings, 1514 B packets.
func DefaultFig9Opts() Fig9Opts {
	return Fig9Opts{
		Geometry: Geometry{RingSize: 1024},
		Rates:    []float64{100, 25},
		Policies: []idiocore.Policy{
			idiocore.PolicyDDIO, idiocore.PolicyInvalidate, idiocore.PolicyPrefetch,
			idiocore.PolicyStatic, idiocore.PolicyIDIO,
		},
		Horizon: 9 * sim.Millisecond,
	}
}

// Fig9 runs the full grid, fanning the independent (rate, policy)
// cells out over the worker pool.
func Fig9(opts Fig9Opts) []Fig9Cell {
	type point struct {
		rate float64
		pol  idiocore.Policy
	}
	var grid []point
	for _, rate := range opts.Rates {
		for _, pol := range opts.Policies {
			grid = append(grid, point{rate: rate, pol: pol})
		}
	}
	return RunCells(opts.Parallelism, grid, func(p point) Fig9Cell {
		return runBurstCell(gem5NFs(p.pol, opts.Geometry, false), p.rate, opts.Horizon)
	})
}

// runBurst gives d's NFs one burst at rate and runs it to completion.
func runBurst(d scenario.Desc, rate float64, horizon sim.Duration) (*scenario.Rig, idio.Results) {
	burst(&d, rate, 1)
	d.Horizon, d.UntilIdle = horizon, true
	r := build(d)
	return r, r.Run()
}

// runBurstCell runs one burst to completion and summarises it. It is
// shared by Fig. 10, 11, 12 and 14, which aggregate the same run.
func runBurstCell(d scenario.Desc, rate float64, horizon sim.Duration) Fig9Cell {
	b, res := runBurst(d, rate, horizon)
	cell := Fig9Cell{
		Policy:   d.Host.Policy,
		RateGbps: rate,
		MLCWB:    seriesOf("mlcWB", res.MLCWBTL),
		LLCWB:    seriesOf("llcWB", res.LLCWBTL),
		DMA:      seriesOf("dma", res.DMATL),
		Summary:  summaryOf(res),
	}
	if b.Antagonist != nil {
		// Measure the antagonist only while the burst was in flight
		// (first inbound DMA to last packet completion); outside that
		// window it runs uncontended and would dilute the comparison.
		cell.Summary.AntagonistCPI = b.Antagonist.CPI()
		if first, ok := b.Sys.FirstDMAAt(); ok {
			var lastDone sim.Time
			for _, cr := range res.Cores {
				if cr.LastDoneAt > lastDone {
					lastDone = cr.LastDoneAt
				}
			}
			if w := b.Antagonist.CPIBetween(first, lastDone); w > 0 {
				cell.Summary.AntagonistCPI = w
			}
		}
	}
	return cell
}

// summaryOf aggregates one run's outcome.
func summaryOf(res idio.Results) BurstSummary {
	return BurstSummary{
		MLCWB:      res.Hier.MLCWriteback,
		LLCWB:      res.Hier.LLCWriteback,
		DRAMReads:  res.DRAMReads,
		DRAMWrites: res.DRAMWrites,
		ExeTimeUS:  res.ExeTime.Microseconds(),
		P50US:      res.P50Across().Microseconds(),
		P99US:      res.P99Across().Microseconds(),
		Processed:  res.TotalProcessed(),
		Drops:      res.NIC.RxDrops,
	}
}

// Fig9Header describes the summary table columns.
func Fig9Header() []string {
	return []string{"rate", "policy", "mlcWB", "llcWB", "dramRd", "dramWr", "exe us", "p99 us"}
}

// Row renders the cell's summary for the table writer.
func (c Fig9Cell) Row() []string {
	s := c.Summary
	return []string{
		fmt.Sprintf("%.0fG", c.RateGbps), c.Policy.Name(),
		fmt.Sprintf("%d", s.MLCWB), fmt.Sprintf("%d", s.LLCWB),
		fmt.Sprintf("%d", s.DRAMReads), fmt.Sprintf("%d", s.DRAMWrites),
		fmt.Sprintf("%.0f", s.ExeTimeUS), fmt.Sprintf("%.1f", s.P99US),
	}
}
