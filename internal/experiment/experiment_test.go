package experiment

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	idiocore "idio/internal/core"
	"idio/internal/sim"
	"idio/internal/stats"
)

// Small-scale variants of each figure keep test runtime low while
// preserving the physics (capacity ratios are scaled together).

func TestFig9SmallShapes(t *testing.T) {
	opts := Fig9Opts{
		Geometry: quickGeometry,
		Rates:    []float64{100, 25},
		Policies: []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyInvalidate, idiocore.PolicyIDIO},
		Horizon:  9 * sim.Millisecond,
	}
	cells := Fig9(opts)
	if len(cells) != 6 {
		t.Fatalf("cells = %d", len(cells))
	}
	byKey := map[string]Fig9Cell{}
	for _, c := range cells {
		byKey[c.Policy.Name()+"@"+itoa(int(c.RateGbps))] = c
		if c.Summary.Processed == 0 {
			t.Fatalf("%s@%v processed nothing", c.Policy.Name(), c.RateGbps)
		}
		if c.Summary.Drops != 0 {
			t.Fatalf("burst sized to ring must not drop: %s@%v dropped %d",
				c.Policy.Name(), c.RateGbps, c.Summary.Drops)
		}
	}
	// Headline claims at each rate: IDIO reduces MLC and LLC
	// writebacks relative to DDIO.
	for _, rate := range []int{100, 25} {
		ddio := byKey["DDIO@"+itoa(rate)].Summary
		idio := byKey["IDIO@"+itoa(rate)].Summary
		if idio.MLCWB >= ddio.MLCWB {
			t.Errorf("@%dG: IDIO MLC WB %d !< DDIO %d", rate, idio.MLCWB, ddio.MLCWB)
		}
		if idio.LLCWB >= ddio.LLCWB {
			t.Errorf("@%dG: IDIO LLC WB %d !< DDIO %d", rate, idio.LLCWB, ddio.LLCWB)
		}
		if idio.ExeTimeUS > ddio.ExeTimeUS {
			t.Errorf("@%dG: IDIO exe %v > DDIO %v", rate, idio.ExeTimeUS, ddio.ExeTimeUS)
		}
		// Invalidate alone eliminates (almost all) MLC writebacks but
		// not the DMA-phase LLC leaks at 100G (Fig. 9c).
		inv := byKey["Invalidate@"+itoa(rate)].Summary
		if inv.MLCWB*10 > ddio.MLCWB {
			t.Errorf("@%dG: Invalidate MLC WB %d not <<%d", rate, inv.MLCWB, ddio.MLCWB)
		}
	}
	// Timelines recorded.
	if byKey["DDIO@100"].MLCWB.Points == nil {
		t.Error("timeline series missing")
	}
}

func TestFig10SmallNormalization(t *testing.T) {
	opts := Fig10Opts{Geometry: quickGeometry, Rates: []float64{25}, Horizon: 9 * sim.Millisecond, CoRun: false}
	rows := Fig10(opts)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NormMLCWB > 1 {
			t.Errorf("%s: normalized MLC WB %.2f > 1", r.Config, r.NormMLCWB)
		}
		if r.NormExeTime > 1.001 {
			t.Errorf("%s: normalized exe %.2f > 1", r.Config, r.NormExeTime)
		}
	}
}

func TestFig11SmallShapes(t *testing.T) {
	opts := Fig11Opts{RingSize: quickRing, FrameLen: 1024, BurstGbps: 25, Horizon: 9 * sim.Millisecond}
	res := Fig11(opts)
	// Shallow NF: DDIO leaves the payload in LLC; IDIO cuts LLC WBs.
	if res.IDIO.Summary.LLCWB >= res.DDIO.Summary.LLCWB && res.DDIO.Summary.LLCWB > 0 {
		t.Errorf("IDIO LLC WB %d !< DDIO %d", res.IDIO.Summary.LLCWB, res.DDIO.Summary.LLCWB)
	}
	if res.DDIO.Summary.Processed == 0 || res.IDIO.Summary.Processed == 0 {
		t.Fatal("L2Fwd processed nothing")
	}
	// Direct-DRAM variant: payload goes to DRAM, so DRAM write
	// bandwidth approaches RX bandwidth (headers still go on-chip).
	dd := res.DirectDRAM
	if dd.Summary.Processed == 0 {
		t.Fatal("direct-DRAM variant processed nothing")
	}
	if dd.DRAMWriteGbps < dd.RxGbps*0.7 {
		t.Errorf("direct-DRAM write BW %.2f not ~ RX %.2f", dd.DRAMWriteGbps, dd.RxGbps)
	}
	if dd.Summary.DRAMWrites == 0 {
		t.Error("class-1 payload must be written to DRAM")
	}
}

func TestFig12SmallShapes(t *testing.T) {
	opts := Fig12Opts{RingSize: quickRing, Rates: []float64{25}, Horizon: 9 * sim.Millisecond}
	rows := Fig12(opts)
	// 1 rate x (solo DDIO ref, solo IDIO, corun DDIO, corun IDIO).
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var soloDDIO, soloIDIO Fig12Row
	for _, r := range rows {
		if !r.CoRun && r.Policy == "DDIO" {
			soloDDIO = r
		}
		if !r.CoRun && r.Policy == "IDIO" {
			soloIDIO = r
		}
	}
	if soloDDIO.NormP99 != 1 {
		t.Fatalf("reference row p99 = %v", soloDDIO.NormP99)
	}
	if soloIDIO.NormP99 >= 1 {
		t.Errorf("IDIO p99 %.3f !< 1", soloIDIO.NormP99)
	}
}

func TestFig13SmallShapes(t *testing.T) {
	opts := Fig13Opts{Geometry: quickGeometry, Gbps: 10, Packets: 1024, Horizon: 10 * sim.Millisecond}
	res := Fig13(opts)
	if res.DDIO.Summary.Processed == 0 || res.IDIO.Summary.Processed == 0 {
		t.Fatal("steady run processed nothing")
	}
	// Steady traffic: DDIO shows consistent MLC writebacks; IDIO
	// removes (nearly all of) them (Fig. 13).
	if res.DDIO.Summary.MLCWB == 0 {
		t.Fatal("DDIO steady run must produce MLC writebacks")
	}
	if res.IDIO.Summary.MLCWB*10 > res.DDIO.Summary.MLCWB {
		t.Errorf("IDIO steady MLC WB %d not << DDIO %d",
			res.IDIO.Summary.MLCWB, res.DDIO.Summary.MLCWB)
	}
}

func TestFig14SmallSweep(t *testing.T) {
	opts := Fig14Opts{Geometry: quickGeometry, RateGbps: 100, THRs: []uint64{10, 50, 100}, Horizon: 9 * sim.Millisecond}
	rows := Fig14(opts)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Insensitivity claim: every threshold value improves on DDIO.
	for _, r := range rows {
		if r.NormMLCWB >= 1 {
			t.Errorf("thr %d: normalized MLC WB %.2f >= 1", r.THRMTPS, r.NormMLCWB)
		}
		if r.NormExeTime >= 1.05 {
			t.Errorf("thr %d: normalized exe %.2f", r.THRMTPS, r.NormExeTime)
		}
	}
}

func TestFig4SmallSweep(t *testing.T) {
	opts := Fig4Opts{
		Rings:       []int{64, 512},
		Loads:       map[string]float64{"med": 2, "high": 8},
		RingCycles:  5,
		OneWayRings: []int{512},
		MLCSize:     quickMLC,
		LLCSize:     quickLLC,
	}
	rows := Fig4(opts)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(ring int, load string, oneWay bool) Fig4Row {
		for _, r := range rows {
			if r.Ring == ring && r.Load == load && r.OneWay == oneWay {
				return r
			}
		}
		t.Fatalf("row %d/%s/%v missing", ring, load, oneWay)
		return Fig4Row{}
	}
	// Observation 2: small rings are invalidation-dominated; large
	// rings writeback-dominated.
	small := get(64, "high", false)
	large := get(512, "high", false)
	if small.NormMLCWB > 0.4 {
		t.Errorf("ring 64 MLC WB/RX = %.2f, want low", small.NormMLCWB)
	}
	if small.NormMLCInval < 0.6 {
		t.Errorf("ring 64 inval/RX = %.2f, want high", small.NormMLCInval)
	}
	if large.NormMLCWB < 0.65 {
		t.Errorf("ring 512 MLC WB/RX = %.2f, want ~1", large.NormMLCWB)
	}
	// Observation 3 (DMA bloating): way-partitioning forces DRAM
	// writes that the unpartitioned LLC absorbed.
	oneWay := get(512, "high", true)
	if oneWay.DRAMWriteGbps <= large.DRAMWriteGbps {
		t.Errorf("_1way DRAM wr %.2f !> full %.2f", oneWay.DRAMWriteGbps, large.DRAMWriteGbps)
	}
}

func TestFig5SmallTimeline(t *testing.T) {
	opts := Fig5Opts{Geometry: quickGeometry, NumBursts: 2, BurstGbps: 25, Horizon: 25 * sim.Millisecond}
	res := Fig5(opts)
	if res.Processed == 0 {
		t.Fatal("nothing processed")
	}
	if res.TotalMLCWB == 0 || res.TotalLLCWB == 0 {
		t.Fatalf("burst run must produce writebacks: mlc=%d llc=%d", res.TotalMLCWB, res.TotalLLCWB)
	}
	// The second burst (at 10 ms) must show activity in the timeline.
	foundLate := false
	for _, p := range res.MLCWB.Points {
		if p.TimeUS > 10000 && p.MTPS > 0 {
			foundLate = true
			break
		}
	}
	if !foundLate {
		t.Error("no writeback activity after the second burst")
	}
}

func TestRenderTable(t *testing.T) {
	rows := []TableRow{Fig14Row{THRMTPS: 50, NormMLCWB: 0.5, NormLLCWB: 0.4, NormDRAMRd: 0.3, NormDRAMWr: 0.2, NormExeTime: 0.9}}
	var buf bytes.Buffer
	if err := WriteTable(&buf, "fig14", Fig14Header(), rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fig14") || !strings.Contains(out, "0.50") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestRenderSeriesCSV(t *testing.T) {
	s1 := Series{Name: "a", Points: []stats.SeriesPoint{{TimeUS: 0, MTPS: 1}, {TimeUS: 10, MTPS: 2}}}
	s2 := Series{Name: "b", Points: []stats.SeriesPoint{{TimeUS: 0, MTPS: 3}}}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, s1, s2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines: %v", lines)
	}
	if lines[0] != "time_us,a_mtps,b_mtps" {
		t.Fatalf("header %q", lines[0])
	}
}

func itoa(v int) string { return strconv.Itoa(v) }
