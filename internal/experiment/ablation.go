package experiment

import (
	"fmt"

	"idio/internal/cache"
	idiocore "idio/internal/core"
	"idio/internal/scenario"
	"idio/internal/sim"
)

// The ablations probe the design choices DESIGN.md calls out, beyond
// the paper's own figures:
//
//   - DDIO way count: how much LLC must be ceded to I/O under the
//     baseline, and whether IDIO removes that sensitivity,
//   - ring size: the footprint-vs-MLC crossover of Observation 2,
//   - prefetch queue depth: Sec. V-C fixes 32; what a smaller or
//     deeper queue changes,
//   - descriptor write-back coalescing: the ~1.9 µs visibility lag of
//     Sec. VII versus immediate visibility,
//   - the adaptive (CPU-following) prefetcher the paper sketches as
//     future work, versus the FSM-regulated one.

// AblationRow is one configuration of a one-dimensional sweep.
type AblationRow struct {
	Param string
	Value string

	MLCWB      uint64
	LLCWB      uint64
	DRAMWrites uint64
	ExeTimeUS  float64
	P99US      float64
	Drops      uint64
}

// Row renders for the table writer.
func (r AblationRow) Row() []string {
	return []string{
		r.Param, r.Value,
		fmt.Sprintf("%d", r.MLCWB), fmt.Sprintf("%d", r.LLCWB),
		fmt.Sprintf("%d", r.DRAMWrites),
		fmt.Sprintf("%.0f", r.ExeTimeUS), fmt.Sprintf("%.1f", r.P99US),
		fmt.Sprintf("%d", r.Drops),
	}
}

// AblationHeader describes the sweep table columns.
func AblationHeader() []string {
	return []string{"param", "value", "mlcWB", "llcWB", "dramWr", "exe us", "p99 us", "drops"}
}

// AblationOpts parameterises the sweeps. Zero values inherit the
// usual full-scale geometry.
type AblationOpts struct {
	Geometry
	RateGbps float64
	Horizon  sim.Duration
	// Parallelism bounds the worker pool running independent sweep
	// cells (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// DefaultAblationOpts uses the Fig. 9 scenario (2x TouchDrop, one
// 25 Gbps burst each).
func DefaultAblationOpts() AblationOpts {
	return AblationOpts{Geometry: Geometry{RingSize: 1024}, RateGbps: 25, Horizon: 9 * sim.Millisecond}
}

// desc is the Fig. 9 run under pol, edited by each set (in order).
func (o AblationOpts) desc(pol idiocore.Policy, set ...func(*scenario.Desc)) scenario.Desc {
	d := gem5NFs(pol, o.Geometry, false)
	for _, f := range set {
		f(&d)
	}
	return d
}

func summarise(param, value string, c Fig9Cell) AblationRow {
	s := c.Summary
	return AblationRow{
		Param: param, Value: value,
		MLCWB: s.MLCWB, LLCWB: s.LLCWB, DRAMWrites: s.DRAMWrites,
		ExeTimeUS: s.ExeTimeUS, P99US: s.P99US, Drops: s.Drops,
	}
}

// sweepCell is one configuration of a one-dimensional sweep: a fully
// prepared description plus its table labels. Every Ablation* sweep reduces
// to a list of these fanned out over the worker pool.
type sweepCell struct {
	param, value string
	desc         scenario.Desc
}

// runSweep fans the cells out and summarises each in order.
func runSweep(opts AblationOpts, cells []sweepCell) []AblationRow {
	return RunCells(opts.Parallelism, cells, func(c sweepCell) AblationRow {
		return summarise(c.param, c.value, runBurstCell(c.desc, opts.RateGbps, opts.Horizon))
	})
}

// AblationDDIOWays sweeps the number of LLC ways granted to DDIO under
// both the baseline and IDIO.
func AblationDDIOWays(opts AblationOpts, ways []int) []AblationRow {
	var cells []sweepCell
	for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
		for _, w := range ways {
			d := opts.desc(pol, func(d *scenario.Desc) { d.Host.Hier.DDIOWays = w })
			cells = append(cells, sweepCell{"ddioWays/" + pol.Name(), fmt.Sprintf("%d", w), d})
		}
	}
	return runSweep(opts, cells)
}

// AblationRingSize sweeps the DMA ring size under both policies,
// exposing the footprint-vs-MLC crossover.
func AblationRingSize(opts AblationOpts, rings []int) []AblationRow {
	var cells []sweepCell
	for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
		for _, ring := range rings {
			d := opts.desc(pol, func(d *scenario.Desc) { d.Host.NIC.RingSize = ring })
			cells = append(cells, sweepCell{"ring/" + pol.Name(), fmt.Sprintf("%d", ring), d})
		}
	}
	return runSweep(opts, cells)
}

// AblationPrefetchDepth sweeps the MLC prefetcher queue depth under
// IDIO.
func AblationPrefetchDepth(opts AblationOpts, depths []int) []AblationRow {
	var cells []sweepCell
	for _, d := range depths {
		desc := opts.desc(idiocore.PolicyIDIO, func(x *scenario.Desc) { x.Host.Prefetcher.QueueDepth = d })
		cells = append(cells, sweepCell{"pfDepth", fmt.Sprintf("%d", d), desc})
	}
	return runSweep(opts, cells)
}

// AblationDescCoalescing compares descriptor write-back visibility
// delays (0 vs the default ~1.9 µs vs an exaggerated lag) under the
// baseline.
func AblationDescCoalescing(opts AblationOpts, delays []sim.Duration) []AblationRow {
	var cells []sweepCell
	for _, d := range delays {
		desc := opts.desc(idiocore.PolicyDDIO, func(x *scenario.Desc) { x.Host.NIC.DescWBDelay = d })
		cells = append(cells, sweepCell{"descWB", fmt.Sprintf("%.1fus", d.Microseconds()), desc})
	}
	return runSweep(opts, cells)
}

// AblationMLP sweeps the core's MSHR budget under both policies,
// quantifying how memory-level parallelism compresses the
// execution-time gap between DDIO and IDIO (the main systematic
// deviation from the paper's out-of-order cores — see EXPERIMENTS.md).
func AblationMLP(opts AblationOpts, mshrs []int) []AblationRow {
	var cells []sweepCell
	for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
		for _, m := range mshrs {
			d := opts.desc(pol, func(d *scenario.Desc) { d.Host.CPU.MSHRs = m })
			cells = append(cells, sweepCell{"mshrs/" + pol.Name(), fmt.Sprintf("%d", m), d})
		}
	}
	return runSweep(opts, cells)
}

// AblationReplacement compares cache replacement policies under both
// the baseline and IDIO: SRRIP's scan-resistant insertion changes how
// fast dead DMA data ages out of the LLC relative to true LRU.
func AblationReplacement(opts AblationOpts) []AblationRow {
	var cells []sweepCell
	for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
		for _, repl := range []cache.Policy{cache.LRU, cache.SRRIP} {
			d := opts.desc(pol, func(d *scenario.Desc) { d.Host.Hier.Policy = repl })
			cells = append(cells, sweepCell{"repl/" + pol.Name(), repl.String(), d})
		}
	}
	return runSweep(opts, cells)
}

// AblationInclusion compares the two non-inclusive LLC behaviours:
// exclusive move-on-hit (the paper's described data movement) versus
// NINE retain-on-hit (a clean copy stays behind). NINE halves the
// effective on-chip capacity for streaming DMA data but absorbs MLC
// writebacks in place.
func AblationInclusion(opts AblationOpts) []AblationRow {
	var cells []sweepCell
	for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
		for _, retain := range []bool{false, true} {
			d := opts.desc(pol, func(d *scenario.Desc) { d.Host.Hier.RetainLLCOnHit = retain })
			name := "exclusive"
			if retain {
				name = "nine"
			}
			cells = append(cells, sweepCell{"inclusion/" + pol.Name(), name, d})
		}
	}
	return runSweep(opts, cells)
}

// AblationFrameSize sweeps the packet size under both policies. Small
// frames are header-dominated (one cacheline per packet), so DDIO's
// static LLC placement wastes little; at MTU the payload dominates and
// IDIO's payload orchestration pays off — the sweep locates that
// crossover.
func AblationFrameSize(opts AblationOpts, sizes []int) []AblationRow {
	var cells []sweepCell
	for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
		for _, fs := range sizes {
			d := opts.desc(pol, func(d *scenario.Desc) {
				for i := range d.NFs {
					d.NFs[i].FrameLen = fs
				}
			})
			cells = append(cells, sweepCell{"frame/" + pol.Name(), fmt.Sprintf("%dB", fs), d})
		}
	}
	return runSweep(opts, cells)
}

// AblationAdaptivePrefetch compares three prefetch regulators at the
// rate where regulation matters most (100 Gbps):
//
//   - none:     the Static policy (status hardwired to MLC),
//   - fsm:      the paper's Fig. 8 controller (dynamic IDIO),
//   - adaptive: the CPU-following throttle the paper sketches as
//     future work, layered on the unregulated Static policy so the
//     throttle is the only regulator.
func AblationAdaptivePrefetch(opts AblationOpts) []AblationRow {
	cells := []sweepCell{
		{"pfRegulator", "none", opts.desc(idiocore.PolicyStatic)},
		{"pfRegulator", "fsm", opts.desc(idiocore.PolicyIDIO)},
		{"pfRegulator", "adaptive", opts.desc(idiocore.PolicyStatic, func(d *scenario.Desc) { d.Host.Prefetcher.Adaptive = true })},
	}
	return runSweep(opts, cells)
}
