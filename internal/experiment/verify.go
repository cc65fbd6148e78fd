package experiment

import (
	"fmt"
	"io"

	idiocore "idio/internal/core"
	"idio/internal/sim"
)

// Verify runs reduced-scale versions (the -quick geometry) of the
// paper's headline experiments and checks the qualitative claims hold,
// printing one PASS/FAIL line per claim. It returns the number of failed claims.
// This is the same set of assertions the test suite enforces, exposed
// as a user-facing reproduction check (`idiosim -exp verify`).
func Verify(w io.Writer) int {
	failed, total := 0, 0
	check := func(name string, ok bool, detail string) {
		total++
		status := "PASS"
		if !ok {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%-4s  %-58s %s\n", status, name, detail)
	}

	horizon := 9 * sim.Millisecond

	// Claims from Fig. 9/10 at 100 and 25 Gbps.
	cells := Fig9(Fig9Opts{
		Geometry: quickGeometry, Rates: []float64{100, 25},
		Policies: []idiocore.Policy{
			idiocore.PolicyDDIO, idiocore.PolicyInvalidate, idiocore.PolicyPrefetch,
			idiocore.PolicyStatic, idiocore.PolicyIDIO,
		},
		Horizon: horizon,
	})
	get := func(rate float64, pol idiocore.Policy) BurstSummary {
		for _, c := range cells {
			if c.RateGbps == rate && c.Policy == pol {
				return c.Summary
			}
		}
		panic("verify: missing cell")
	}
	for _, rate := range []float64{100, 25} {
		ddio := get(rate, idiocore.PolicyDDIO)
		idio := get(rate, idiocore.PolicyIDIO)
		inv := get(rate, idiocore.PolicyInvalidate)
		pf := get(rate, idiocore.PolicyPrefetch)
		check(fmt.Sprintf("IDIO reduces MLC writebacks @%vG", rate),
			idio.MLCWB < ddio.MLCWB,
			fmt.Sprintf("(%d vs %d)", idio.MLCWB, ddio.MLCWB))
		check(fmt.Sprintf("IDIO reduces LLC writebacks @%vG", rate),
			idio.LLCWB < ddio.LLCWB,
			fmt.Sprintf("(%d vs %d)", idio.LLCWB, ddio.LLCWB))
		check(fmt.Sprintf("IDIO shortens burst processing @%vG", rate),
			idio.ExeTimeUS <= ddio.ExeTimeUS,
			fmt.Sprintf("(%.0fus vs %.0fus)", idio.ExeTimeUS, ddio.ExeTimeUS))
		check(fmt.Sprintf("IDIO improves p99 @%vG", rate),
			idio.P99US < ddio.P99US,
			fmt.Sprintf("(%.1fus vs %.1fus)", idio.P99US, ddio.P99US))
		check(fmt.Sprintf("Invalidate alone kills MLC WB @%vG", rate),
			inv.MLCWB*10 <= ddio.MLCWB,
			fmt.Sprintf("(%d vs %d)", inv.MLCWB, ddio.MLCWB))
		check(fmt.Sprintf("Prefetch alone raises MLC WB @%vG", rate),
			pf.MLCWB > ddio.MLCWB,
			fmt.Sprintf("(%d vs %d)", pf.MLCWB, ddio.MLCWB))
	}
	// FSM regulation: dynamic IDIO keeps MLC pressure below Static at
	// the saturating rate (Fig. 9g vs 9i).
	check("dynamic FSM regulates MLC WB below Static @100G",
		get(100, idiocore.PolicyIDIO).MLCWB < get(100, idiocore.PolicyStatic).MLCWB,
		fmt.Sprintf("(%d vs %d)", get(100, idiocore.PolicyIDIO).MLCWB, get(100, idiocore.PolicyStatic).MLCWB))

	// Fig. 4 regimes.
	f4 := Fig4(Fig4Opts{
		Rings: []int{64, quickRing}, Loads: map[string]float64{"high": 8},
		RingCycles: 5, OneWayRings: []int{quickRing}, MLCSize: quickMLC, LLCSize: quickLLC,
	})
	var small, large, oneWay Fig4Row
	for _, r := range f4 {
		switch {
		case r.Ring == 64 && !r.OneWay:
			small = r
		case r.Ring == quickRing && !r.OneWay:
			large = r
		case r.OneWay:
			oneWay = r
		}
	}
	check("small rings are invalidation-dominated (Fig. 4)",
		small.NormMLCInval > small.NormMLCWB,
		fmt.Sprintf("(inval %.2f vs wb %.2f)", small.NormMLCInval, small.NormMLCWB))
	check("large rings are writeback-dominated (Fig. 4)",
		large.NormMLCWB > 0.5,
		fmt.Sprintf("(wb/rx %.2f)", large.NormMLCWB))
	check("way partitioning exposes DMA bloating (Fig. 4 _1way)",
		oneWay.DRAMWriteGbps > large.DRAMWriteGbps,
		fmt.Sprintf("(%.2f vs %.2f Gbps)", oneWay.DRAMWriteGbps, large.DRAMWriteGbps))

	// Fig. 11: shallow NF and direct DRAM.
	f11 := Fig11(Fig11Opts{RingSize: quickRing, FrameLen: 1024, BurstGbps: 25, Horizon: horizon})
	check("IDIO cuts L2Fwd LLC writebacks (Fig. 11)",
		f11.IDIO.Summary.LLCWB < f11.DDIO.Summary.LLCWB,
		fmt.Sprintf("(%d vs %d)", f11.IDIO.Summary.LLCWB, f11.DDIO.Summary.LLCWB))
	check("class-1 payload goes direct to DRAM (Fig. 11)",
		f11.DirectDRAM.DRAMWriteGbps > f11.DirectDRAM.RxGbps*0.7,
		fmt.Sprintf("(%.1f vs RX %.1f Gbps)", f11.DirectDRAM.DRAMWriteGbps, f11.DirectDRAM.RxGbps))

	// Fig. 13: steady traffic.
	f13 := Fig13(Fig13Opts{Geometry: quickGeometry, Gbps: 10, Packets: 1024, Horizon: 10 * sim.Millisecond})
	check("steady-traffic MLC WB removed by IDIO (Fig. 13)",
		f13.IDIO.Summary.MLCWB*10 <= f13.DDIO.Summary.MLCWB,
		fmt.Sprintf("(%d vs %d)", f13.IDIO.Summary.MLCWB, f13.DDIO.Summary.MLCWB))

	// Shortcoming S1: an IAT-style dynamic DDIO-way baseline reduces
	// LLC leaks but cannot touch the MLC writeback problem.
	baseRows := Baselines(AblationOpts{Geometry: quickGeometry, RateGbps: 100, Horizon: horizon})
	sDDIO, sDyn, sIDIO := baseRows[0], baseRows[1], baseRows[2]
	check("dynamic DDIO ways reduce LLC leaks (prior work)",
		sDyn.LLCWB < sDDIO.LLCWB,
		fmt.Sprintf("(%d vs %d)", sDyn.LLCWB, sDDIO.LLCWB))
	check("dynamic DDIO ways cannot reduce MLC WB (S1)",
		sDyn.MLCWB >= sDDIO.MLCWB*9/10,
		fmt.Sprintf("(%d vs %d)", sDyn.MLCWB, sDDIO.MLCWB))
	check("IDIO beats the dynamic-ways baseline on both",
		sIDIO.MLCWB < sDyn.MLCWB && sIDIO.LLCWB < sDyn.LLCWB,
		fmt.Sprintf("(mlc %d<%d, llc %d<%d)", sIDIO.MLCWB, sDyn.MLCWB, sIDIO.LLCWB, sDyn.LLCWB))

	// Fig. 14: threshold insensitivity.
	f14 := Fig14(Fig14Opts{Geometry: quickGeometry, RateGbps: 100, THRs: []uint64{10, 50, 100}, Horizon: horizon})
	insensitive := true
	for _, r := range f14 {
		if r.NormMLCWB >= 1 || r.NormExeTime >= 1.05 {
			insensitive = false
		}
	}
	check("IDIO improves for every mlcTHR (Fig. 14)", insensitive,
		fmt.Sprintf("(%d thresholds)", len(f14)))

	fmt.Fprintf(w, "\n%d claims checked, %d failed\n", total, failed)
	return failed
}
