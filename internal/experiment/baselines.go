package experiment

import (
	"fmt"

	idiocore "idio/internal/core"
)

// Baselines reproduces the paper's Shortcoming S1 argument: static
// DDIO, an IAT-style dynamic DDIO-way policy (prior work [41]), and
// IDIO on the same bursty TouchDrop scenario. The dynamic baseline
// reduces DMA leaks by ceding more LLC ways to I/O, but — because all
// inbound data still lands in the LLC — it cannot touch the MLC
// writeback problem; IDIO addresses both.

// BaselineRow is one policy's outcome.
type BaselineRow struct {
	Name string
	BurstSummary
	// PeakWays is the largest DDIO way allocation the dynamic
	// baseline reached during the run (the tuner shrinks back once the
	// burst drains, so the end-of-run value is uninformative).
	PeakWays int
}

// Row renders for the table writer.
func (r BaselineRow) Row() []string {
	return []string{
		r.Name, fmt.Sprintf("%d", r.MLCWB), fmt.Sprintf("%d", r.LLCWB),
		fmt.Sprintf("%.0f", r.ExeTimeUS), fmt.Sprintf("%.1f", r.P99US),
		fmt.Sprintf("%d", r.PeakWays),
	}
}

// BaselineHeader describes the table columns.
func BaselineHeader() []string {
	return []string{"policy", "mlcWB", "llcWB", "exe us", "p99 us", "ddioWays(peak)"}
}

// Baselines runs the three policies on the Fig. 9 scenario.
func Baselines(opts AblationOpts) []BaselineRow {
	run := func(name string, pol idiocore.Policy, tuner *idiocore.WayTunerConfig) BaselineRow {
		d := opts.desc(pol)
		d.Host.DynamicDDIOWays = tuner
		b, res := runBurst(d, opts.RateGbps, opts.Horizon)
		row := BaselineRow{Name: name, BurstSummary: summaryOf(res), PeakWays: b.Sys.Hier.DDIOWays()}
		if b.Sys.WayTuner != nil {
			row.PeakWays = b.Sys.WayTuner.PeakWays
		}
		return row
	}
	cfg := idiocore.DefaultWayTunerConfig()
	type cell struct {
		name  string
		pol   idiocore.Policy
		tuner *idiocore.WayTunerConfig
	}
	cells := []cell{
		{"DDIO(static 2-way)", idiocore.PolicyDDIO, nil},
		{"DynamicWays(2..4)", idiocore.PolicyDDIO, &cfg},
		{"IDIO", idiocore.PolicyIDIO, nil},
	}
	return RunCells(opts.Parallelism, cells, func(c cell) BaselineRow {
		return run(c.name, c.pol, c.tuner)
	})
}
