package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	idiocore "idio/internal/core"
	"idio/internal/stats"
)

// The tests read the catalogue's -quick cells by label. Each entry
// runs once per test binary (quickRuns); tests that compare
// parallelism levels run it again.

var quickCache sync.Map // entry name -> func() []*run

// quickRuns returns the runs of the named entry's -quick cells, in
// cell order.
func quickRuns(t *testing.T, name string) []*run {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("no catalogue entry %q", name)
	}
	f, _ := quickCache.LoadOrStore(name, sync.OnceValue(func() []*run {
		cells, err := s.cells(Env{Quick: true})
		if err != nil {
			panic(err)
		}
		return execute(0, cells)
	}))
	return f.(func() []*run)()
}

// quickRun returns the named entry's -quick run with the given labels.
func quickRun(t *testing.T, name string, labels ...string) *run {
	t.Helper()
	r := labelled(quickRuns(t, name))[strings.Join(labels, " ")]
	if r == nil {
		t.Fatalf("%s has no cell %q", name, labels)
	}
	return r
}

// rendered is the entry's text for runs followed by its CSV side
// files, as idiosim writes them.
func rendered(t *testing.T, name string, runs []*run) []byte {
	t.Helper()
	s, _ := Lookup(name)
	var buf bytes.Buffer
	files, err := s.render(&buf, runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		fmt.Fprintf(&buf, "-- %s --\n", f.Name)
		if err := WriteSeriesCSV(&buf, f.Series...); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkParallelism renders the named entry's -quick cells run at
// parallelism 1 and 8 and fails unless both match the cached runs'
// rendering byte for byte.
func checkParallelism(t *testing.T, name string) {
	t.Helper()
	s, _ := Lookup(name)
	want := rendered(t, name, quickRuns(t, name))
	for _, par := range []int{1, 8} {
		cells, err := s.cells(Env{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := rendered(t, name, execute(par, cells)); !bytes.Equal(got, want) {
			t.Fatalf("%s at parallelism %d differs:\n--- got ---\n%s\n--- want ---\n%s", name, par, got, want)
		}
	}
}

func TestFig9SmallShapes(t *testing.T) {
	runs := quickRuns(t, "fig9")
	if len(runs) != 10 {
		t.Fatalf("cells = %d", len(runs))
	}
	for _, r := range runs {
		if processed(r) == 0 {
			t.Fatalf("%v processed nothing", r.labels)
		}
		if rxDrops(r) != 0 {
			t.Fatalf("burst sized to ring must not drop: %v dropped %.0f", r.labels, rxDrops(r))
		}
	}
	// Headline claims at each rate: IDIO reduces MLC and LLC
	// writebacks relative to DDIO.
	for _, rate := range []string{"100G", "25G"} {
		ddio := quickRun(t, "fig9", rate, "DDIO")
		idio := quickRun(t, "fig9", rate, "IDIO")
		if mlcWB(idio) >= mlcWB(ddio) {
			t.Errorf("@%s: IDIO MLC WB %.0f !< DDIO %.0f", rate, mlcWB(idio), mlcWB(ddio))
		}
		if llcWB(idio) >= llcWB(ddio) {
			t.Errorf("@%s: IDIO LLC WB %.0f !< DDIO %.0f", rate, llcWB(idio), llcWB(ddio))
		}
		if exeUS(idio) > exeUS(ddio) {
			t.Errorf("@%s: IDIO exe %v > DDIO %v", rate, exeUS(idio), exeUS(ddio))
		}
		// Invalidate alone eliminates (almost all) MLC writebacks but
		// not the DMA-phase LLC leaks at 100G (Fig. 9c).
		if inv := quickRun(t, "fig9", rate, "Invalidate"); mlcWB(inv)*10 > mlcWB(ddio) {
			t.Errorf("@%s: Invalidate MLC WB %.0f not <<%.0f", rate, mlcWB(inv), mlcWB(ddio))
		}
	}
	// Timelines recorded.
	if timelines(quickRun(t, "fig9", "100G", "DDIO"), true)[0].Points == nil {
		t.Error("timeline series missing")
	}
}

func TestFig10SmallNormalization(t *testing.T) {
	if n := len(quickRuns(t, "fig10")); n != 9 {
		t.Fatalf("rows = %d, want Static, IDIO and IDIO+Antagonist at 3 rates", n)
	}
	for _, config := range []string{"Static", "IDIO"} {
		r := quickRun(t, "fig10", "25G", config)
		if r.ref == nil || r.ref.desc.Host.Policy != idiocore.PolicyDDIO || r.ref.rig.Antagonist != nil {
			t.Fatalf("%s: reference is not the solo DDIO run", config)
		}
		if v := norm(mlcWB)(r); v > 1 {
			t.Errorf("%s: normalized MLC WB %.2f > 1", config, v)
		}
		if v := norm(exeUS)(r); v > 1.001 {
			t.Errorf("%s: normalized exe %.2f > 1", config, v)
		}
	}
	if co := quickRun(t, "fig10", "25G", "IDIO+Antagonist"); co.ref.rig.Antagonist == nil || antCPI(co.ref) <= 0 || antCPI(co) <= 0 {
		t.Error("the co-run row must compare two antagonist runs")
	}
}

func TestFig11SmallShapes(t *testing.T) {
	ddio, idio := quickRun(t, "fig11", "DDIO"), quickRun(t, "fig11", "IDIO")
	// Shallow NF: DDIO leaves the payload in LLC; IDIO cuts LLC WBs.
	if llcWB(idio) >= llcWB(ddio) && llcWB(ddio) > 0 {
		t.Errorf("IDIO LLC WB %.0f !< DDIO %.0f", llcWB(idio), llcWB(ddio))
	}
	if processed(ddio) == 0 || processed(idio) == 0 {
		t.Fatal("L2Fwd processed nothing")
	}
	// Direct-DRAM variant: payload goes to DRAM, so DRAM write
	// bandwidth approaches RX bandwidth (headers still go on-chip).
	dd := quickRun(t, "fig11", "direct-DRAM")
	if processed(dd) == 0 {
		t.Fatal("direct-DRAM variant processed nothing")
	}
	if dramWrGbps(dd) < rxGbps(dd)*0.7 {
		t.Errorf("direct-DRAM write BW %.2f not ~ RX %.2f", dramWrGbps(dd), rxGbps(dd))
	}
	if dramWr(dd) == 0 {
		t.Error("class-1 payload must be written to DRAM")
	}
}

func TestFig12SmallShapes(t *testing.T) {
	// 3 rates x (solo DDIO ref, solo IDIO, corun DDIO, corun IDIO).
	if n := len(quickRuns(t, "fig12")); n != 12 {
		t.Fatalf("rows = %d", n)
	}
	soloDDIO := quickRun(t, "fig12", "25G", "DDIO", "false")
	if soloDDIO.ref != soloDDIO || norm(p99US)(soloDDIO) != 1 {
		t.Fatalf("reference row p99 = %v", norm(p99US)(soloDDIO))
	}
	if v := norm(p99US)(quickRun(t, "fig12", "25G", "IDIO", "false")); v >= 1 {
		t.Errorf("IDIO p99 %.3f !< 1", v)
	}
	// The quick cells scale the caches with the ring, so the LLC
	// antagonist contends with DDIO's I/O data and raises its tail.
	if solo, co := p99US(soloDDIO), p99US(quickRun(t, "fig12", "25G", "DDIO", "true")); co <= solo {
		t.Errorf("DDIO co-run p99 %.2f us !> solo %.2f us", co, solo)
	}
}

func TestFig13SmallShapes(t *testing.T) {
	ddio, idio := quickRun(t, "fig13", "DDIO"), quickRun(t, "fig13", "IDIO")
	if processed(ddio) == 0 || processed(idio) == 0 {
		t.Fatal("steady run processed nothing")
	}
	// Steady traffic: DDIO shows consistent MLC writebacks; IDIO
	// removes (nearly all of) them (Fig. 13).
	if mlcWB(ddio) == 0 {
		t.Fatal("DDIO steady run must produce MLC writebacks")
	}
	if mlcWB(idio)*10 > mlcWB(ddio) {
		t.Errorf("IDIO steady MLC WB %.0f not << DDIO %.0f", mlcWB(idio), mlcWB(ddio))
	}
}

func TestFig14SmallSweep(t *testing.T) {
	runs := quickRuns(t, "fig14")
	if len(runs) != 5 {
		t.Fatalf("rows = %d", len(runs))
	}
	// Insensitivity claim: every threshold value improves on DDIO.
	for _, r := range runs {
		if r.ref == nil || r.ref.desc.Host.Policy != idiocore.PolicyDDIO {
			t.Fatalf("thr %s: reference is not DDIO", r.labels[0])
		}
		if v := norm(mlcWB)(r); v >= 1 {
			t.Errorf("thr %s: normalized MLC WB %.2f >= 1", r.labels[0], v)
		}
		if v := norm(exeUS)(r); v >= 1.05 {
			t.Errorf("thr %s: normalized exe %.2f", r.labels[0], v)
		}
	}
}

func TestFig4SmallSweep(t *testing.T) {
	if n := len(quickRuns(t, "fig4")); n != 7 {
		t.Fatalf("rows = %d", n)
	}
	// Observation 2: small rings are invalidation-dominated; large
	// rings writeback-dominated.
	small := quickRun(t, "fig4", "64", "high", "false")
	large := quickRun(t, "fig4", "256", "high", "false")
	if v := mlcWBPerRX(small); v > 0.4 {
		t.Errorf("ring 64 MLC WB/RX = %.2f, want low", v)
	}
	if v := mlcInvalPerRX(small); v < 0.6 {
		t.Errorf("ring 64 inval/RX = %.2f, want high", v)
	}
	if v := mlcWBPerRX(large); v < 0.65 {
		t.Errorf("ring 256 MLC WB/RX = %.2f, want ~1", v)
	}
	// Observation 3 (DMA bloating): way-partitioning forces DRAM
	// writes that the unpartitioned LLC absorbed.
	if oneWay := quickRun(t, "fig4", "256", "high", "true"); dramWrGbps(oneWay) <= dramWrGbps(large) {
		t.Errorf("_1way DRAM wr %.2f !> full %.2f", dramWrGbps(oneWay), dramWrGbps(large))
	}
}

func TestFig5SmallTimeline(t *testing.T) {
	r := quickRuns(t, "fig5")[0]
	if processed(r) == 0 {
		t.Fatal("nothing processed")
	}
	if mlcWB(r) == 0 || llcWB(r) == 0 {
		t.Fatalf("burst run must produce writebacks: mlc=%.0f llc=%.0f", mlcWB(r), llcWB(r))
	}
	// The second burst (at 10 ms) must show activity in the timeline.
	foundLate := false
	for _, p := range timelines(r, false)[0].Points {
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
	var buf bytes.Buffer
	if err := writeTable(&buf, "fig14", [][]string{{"mlcTHR", "MLCWB"}, {"50", "0.50"}}); err != nil {
		t.Fatal(err)
	}
	want := "== fig14 ==\nmlcTHR  MLCWB\n-------------\n50      0.50\n"
	if got := buf.String(); got != want {
		t.Fatalf("table output:\n%s\nwant:\n%s", got, want)
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
