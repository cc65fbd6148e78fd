package experiment

import (
	"fmt"
	"io"
	"slices"
	"strings"

	idiocore "idio/internal/core"
	"idio/internal/sim"
)

// Verify runs reduced-scale versions (the -quick geometry) of the
// paper's headline experiments and checks the qualitative claims hold,
// printing one PASS/FAIL line per claim. It returns the number of failed claims.
// This is the same set of assertions the test suite enforces, exposed
// as a user-facing reproduction check (`idiosim -exp verify`). Its
// runs are the catalogue's cells at Verify's own parameter values, all
// in one worker pool.
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

	groups := [][]*cell{
		fig9Cells(quickGeometry),
		fig4Cells(quickGeometry, []int{64, quickRing}, []load{{"high", 8}}, 5, []int{quickRing}),
		fig11Cells(quickRing),
		fig13Cells(quickGeometry, 1024, 10*sim.Millisecond),
		baselineCells(quickGeometry),
		fig14Cells(quickGeometry, []uint64{10, 50, 100}),
	}
	runs := execute(0, slices.Concat(groups...))
	at := make([]map[string]*run, len(groups))
	for i, g := range groups {
		at[i] = labelled(runs[:len(g)])
		runs = runs[len(g):]
	}
	f9, f4, f11, f13, s1 := at[0], at[1], at[2], at[3], at[4]

	// Claims from Fig. 9/10 at 100 and 25 Gbps.
	get := func(rate float64, pol idiocore.Policy) *run { return f9[gbpsLabel(rate)+" "+pol.Name()] }
	for _, rate := range []float64{100, 25} {
		ddio := get(rate, idiocore.PolicyDDIO)
		idio := get(rate, idiocore.PolicyIDIO)
		inv := get(rate, idiocore.PolicyInvalidate)
		pf := get(rate, idiocore.PolicyPrefetch)
		check(fmt.Sprintf("IDIO reduces MLC writebacks @%vG", rate),
			mlcWB(idio) < mlcWB(ddio),
			fmt.Sprintf("(%.0f vs %.0f)", mlcWB(idio), mlcWB(ddio)))
		check(fmt.Sprintf("IDIO reduces LLC writebacks @%vG", rate),
			llcWB(idio) < llcWB(ddio),
			fmt.Sprintf("(%.0f vs %.0f)", llcWB(idio), llcWB(ddio)))
		check(fmt.Sprintf("IDIO shortens burst processing @%vG", rate),
			exeUS(idio) <= exeUS(ddio),
			fmt.Sprintf("(%.0fus vs %.0fus)", exeUS(idio), exeUS(ddio)))
		check(fmt.Sprintf("IDIO improves p99 @%vG", rate),
			p99US(idio) < p99US(ddio),
			fmt.Sprintf("(%.1fus vs %.1fus)", p99US(idio), p99US(ddio)))
		check(fmt.Sprintf("Invalidate alone kills MLC WB @%vG", rate),
			mlcWB(inv)*10 <= mlcWB(ddio),
			fmt.Sprintf("(%.0f vs %.0f)", mlcWB(inv), mlcWB(ddio)))
		check(fmt.Sprintf("Prefetch alone raises MLC WB @%vG", rate),
			mlcWB(pf) > mlcWB(ddio),
			fmt.Sprintf("(%.0f vs %.0f)", mlcWB(pf), mlcWB(ddio)))
	}
	// FSM regulation: dynamic IDIO keeps MLC pressure below Static at
	// the saturating rate (Fig. 9g vs 9i).
	fsm, static := mlcWB(get(100, idiocore.PolicyIDIO)), mlcWB(get(100, idiocore.PolicyStatic))
	check("dynamic FSM regulates MLC WB below Static @100G", fsm < static,
		fmt.Sprintf("(%.0f vs %.0f)", fsm, static))

	// Fig. 4 regimes.
	small, large, oneWay := f4["64 high false"], f4[fmt.Sprintf("%d high false", quickRing)], f4[fmt.Sprintf("%d high true", quickRing)]
	check("small rings are invalidation-dominated (Fig. 4)",
		mlcInvalPerRX(small) > mlcWBPerRX(small),
		fmt.Sprintf("(inval %.2f vs wb %.2f)", mlcInvalPerRX(small), mlcWBPerRX(small)))
	check("large rings are writeback-dominated (Fig. 4)",
		mlcWBPerRX(large) > 0.5,
		fmt.Sprintf("(wb/rx %.2f)", mlcWBPerRX(large)))
	check("way partitioning exposes DMA bloating (Fig. 4 _1way)",
		dramWrGbps(oneWay) > dramWrGbps(large),
		fmt.Sprintf("(%.2f vs %.2f Gbps)", dramWrGbps(oneWay), dramWrGbps(large)))

	// Fig. 11: shallow NF and direct DRAM.
	direct := f11["direct-DRAM"]
	check("IDIO cuts L2Fwd LLC writebacks (Fig. 11)",
		llcWB(f11["IDIO"]) < llcWB(f11["DDIO"]),
		fmt.Sprintf("(%.0f vs %.0f)", llcWB(f11["IDIO"]), llcWB(f11["DDIO"])))
	check("class-1 payload goes direct to DRAM (Fig. 11)",
		dramWrGbps(direct) > rxGbps(direct)*0.7,
		fmt.Sprintf("(%.1f vs RX %.1f Gbps)", dramWrGbps(direct), rxGbps(direct)))

	// Fig. 13: steady traffic.
	check("steady-traffic MLC WB removed by IDIO (Fig. 13)",
		mlcWB(f13["IDIO"])*10 <= mlcWB(f13["DDIO"]),
		fmt.Sprintf("(%.0f vs %.0f)", mlcWB(f13["IDIO"]), mlcWB(f13["DDIO"])))

	// Shortcoming S1: an IAT-style dynamic DDIO-way baseline reduces
	// LLC leaks but cannot touch the MLC writeback problem.
	sDDIO, sDyn, sIDIO := s1["DDIO(static 2-way)"], s1["DynamicWays(2..4)"], s1["IDIO"]
	check("dynamic DDIO ways reduce LLC leaks (prior work)",
		llcWB(sDyn) < llcWB(sDDIO),
		fmt.Sprintf("(%.0f vs %.0f)", llcWB(sDyn), llcWB(sDDIO)))
	check("dynamic DDIO ways cannot reduce MLC WB (S1)",
		uint64(mlcWB(sDyn)) >= uint64(mlcWB(sDDIO))*9/10,
		fmt.Sprintf("(%.0f vs %.0f)", mlcWB(sDyn), mlcWB(sDDIO)))
	check("IDIO beats the dynamic-ways baseline on both",
		mlcWB(sIDIO) < mlcWB(sDyn) && llcWB(sIDIO) < llcWB(sDyn),
		fmt.Sprintf("(mlc %.0f<%.0f, llc %.0f<%.0f)", mlcWB(sIDIO), mlcWB(sDyn), llcWB(sIDIO), llcWB(sDyn)))

	// Fig. 14: threshold insensitivity.
	insensitive := true
	for _, r := range at[5] {
		if norm(mlcWB)(r) >= 1 || norm(exeUS)(r) >= 1.05 {
			insensitive = false
		}
	}
	check("IDIO improves for every mlcTHR (Fig. 14)", insensitive,
		fmt.Sprintf("(%d thresholds)", len(at[5])))

	fmt.Fprintf(w, "\n%d claims checked, %d failed\n", total, failed)
	return failed
}

// labelled indexes runs by their labels joined with spaces; the first
// of several runs with the same labels wins.
func labelled(runs []*run) map[string]*run {
	m := make(map[string]*run, len(runs))
	for _, r := range runs {
		k := strings.Join(r.labels, " ")
		if _, dup := m[k]; !dup {
			m[k] = r
		}
	}
	return m
}
