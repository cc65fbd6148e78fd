package experiment

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"idio"
	"idio/internal/cache"
	idiocore "idio/internal/core"
	"idio/internal/fault"
	fnet "idio/internal/net"
	"idio/internal/obs"
	"idio/internal/scenario"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// Catalogue is every experiment, in the order `idiosim -exp all` and
// the report run them.
var Catalogue = []Sweep{
	{Name: "fig4", cells: func(env Env) ([]*cell, error) {
		// The paper's loads are aggregate over ten NF instances
		// (8 Mbps / 1 Gbps / 20 Gbps); with two NFs the same aggregates
		// give 4 Mbps / 500 Mbps / 10 Gbps per NF. "low" is scaled to
		// 50 Mbps to keep simulated time sane; it sits in the same
		// regime (each packet is fully consumed long before the next
		// arrives). Every load keeps the cores unsaturated, as in the
		// figure: the ring cycles because the NIC head laps it.
		return fig4Cells(pick(env, fullGeometry, quickGeometry),
			pick(env, []int{64, 1024, 2048}, []int{64, quickRing}),
			[]load{{"low", pick(env, 0.05, 0.5)}, {"med", 0.5}, {"high", 10}}, 3,
			pick(env, []int{1024, 2048}, []int{quickRing})), nil
	}, tables: []table{{
		title: "Fig 4: MLC/DRAM leaks vs load and ring size (DDIO baseline)",
		head:  []string{"ring", "load", "1way"},
		cols: []col{
			num("MLCWB/RX", "%.2f", mlcWBPerRX), num("MLCInval/RX", "%.2f", mlcInvalPerRX),
			num("DRAMrd Gbps", "%.2f", dramRdGbps), num("DRAMwr Gbps", "%.2f", dramWrGbps),
		},
	}}},

	{Name: "fig5", cells: func(env Env) ([]*cell, error) {
		// Three 25 Gbps bursts over Fig. 5's 30 ms timeline.
		d := gem5NFs(idiocore.PolicyDDIO, pick(env, fullGeometry, quickGeometry), false)
		burst(&d, 25, 3)
		d.Horizon = 30 * sim.Millisecond
		return []*cell{{desc: d}}, nil
	}, text: func(w io.Writer, runs []*run) error {
		r := runs[0]
		_, err := fmt.Fprintf(w, "== Fig 5: bursty TouchDrop under DDIO ==\n"+
			"processed=%d  totalMLCWB=%.0f  totalLLCWB=%.0f  (timeline: %d buckets)\n",
			r.res.TotalProcessed(), mlcWB(r), llcWB(r), len(timelines(r, false)[0].Points))
		return err
	}, files: func(runs []*run) []SeriesFile {
		return []SeriesFile{{"fig5_timeline.csv", timelines(runs[0], true)}}
	}},

	{Name: "fig9", cells: func(env Env) ([]*cell, error) {
		return fig9Cells(pick(env, fullGeometry, quickGeometry)), nil
	}, tables: []table{{
		title: "Fig 9: per-mechanism burst comparison (2x TouchDrop)",
		head:  []string{"rate", "policy"},
		cols: []col{
			num("mlcWB", "%.0f", mlcWB), num("llcWB", "%.0f", llcWB),
			num("dramRd", "%.0f", dramRd), num("dramWr", "%.0f", dramWr),
			num("exe us", "%.0f", exeUS), num("p99 us", "%.1f", p99US),
		},
	}}, files: func(runs []*run) []SeriesFile {
		files := make([]SeriesFile, len(runs))
		for i, r := range runs {
			files[i] = SeriesFile{fmt.Sprintf("fig9_%s_%s.csv", r.labels[1], r.labels[0]), timelines(r, true)}
		}
		return files
	}},

	{Name: "fig10", cells: func(env Env) ([]*cell, error) {
		return fig10Cells(pick(env, fullGeometry, quickGeometry)), nil
	}, tables: []table{{
		title: "Fig 10: Static/IDIO normalized to DDIO (lower is better)",
		head:  []string{"rate", "config"},
		cols: []col{
			normNA("MLCWB", mlcWB), normNA("LLCWB", llcWB), normNA("DRAMrd", dramRd),
			normNA("DRAMwr", dramWr), normNA("ExeTime", exeUS),
			// (CPI_DDIO - CPI_IDIO)/CPI_DDIO of the co-run antagonist.
			num("antCPI gain", "%.1f%%", func(r *run) float64 {
				if b, c := antCPI(r.ref), antCPI(r); b > 0 && c > 0 {
					return (b - c) / b * 100
				}
				return 0
			}),
		},
	}}},

	{Name: "fig11", cells: func(env Env) ([]*cell, error) {
		return fig11Cells(pick(env, 1024, quickRing)), nil
	}, text: func(w io.Writer, runs []*run) error {
		line := func(r *run) string {
			return fmt.Sprintf("mlcWB=%.0f llcWB=%.0f dramWr=%.0f exe=%.0fus", mlcWB(r), llcWB(r), dramWr(r), exeUS(r))
		}
		_, err := fmt.Fprintf(w, "== Fig 11: L2Fwd (zero-copy shallow NF), 1024-byte packets ==\n"+
			"DDIO: %s\nIDIO: %s\n"+
			"Direct-DRAM variant (class-1 payload): RX=%.2f Gbps, DRAM write=%.2f Gbps\n",
			line(runs[0]), line(runs[1]), rxGbps(runs[2]), dramWrGbps(runs[2]))
		return err
	}, files: func(runs []*run) []SeriesFile {
		return []SeriesFile{{"fig11_ddio.csv", timelines(runs[0], false)}, {"fig11_idio.csv", timelines(runs[1], false)}}
	}},

	{Name: "fig12", cells: func(env Env) ([]*cell, error) {
		return fig12Cells(pick(env, fullGeometry, quickGeometry)), nil
	}, tables: []table{{
		title: "Fig 12: p50/p99 latency normalized to DDIO solo",
		head:  []string{"rate", "policy", "corun"},
		cols: []col{
			num("p50/ddio", "%.3f", norm(p50US)), num("p99/ddio", "%.3f", norm(p99US)),
			num("p50 us", "%.2f", p50US), num("p99 us", "%.2f", p99US),
		},
	}}},

	{Name: "fig13", cells: func(env Env) ([]*cell, error) {
		return fig13Cells(pick(env, fullGeometry, quickGeometry), pick[uint64](env, 8192, 2048), 40*sim.Millisecond), nil
	}, text: func(w io.Writer, runs []*run) error {
		line := func(r *run) string {
			return fmt.Sprintf("mlcWB=%.0f llcWB=%.0f drops=%.0f p99=%.1fus", mlcWB(r), llcWB(r), rxDrops(r), p99US(r))
		}
		_, err := fmt.Fprintf(w, "== Fig 13: steady traffic (10 Gbps per TouchDrop) ==\nDDIO: %s\nIDIO: %s\n",
			line(runs[0]), line(runs[1]))
		return err
	}, files: func(runs []*run) []SeriesFile {
		return []SeriesFile{{"fig13_ddio.csv", timelines(runs[0], false)}, {"fig13_idio.csv", timelines(runs[1], false)}}
	}},

	{Name: "fig14", cells: func(env Env) ([]*cell, error) {
		return fig14Cells(pick(env, fullGeometry, quickGeometry), []uint64{10, 25, 50, 75, 100}), nil
	}, tables: []table{{
		title: "Fig 14: IDIO sensitivity to mlcTHR at 100 Gbps (normalized to DDIO)",
		head:  []string{"mlcTHR"},
		cols: []col{
			num("MLCWB", "%.2f", norm(mlcWB)), num("LLCWB", "%.2f", norm(llcWB)),
			num("DRAMrd", "%.2f", norm(dramRd)), num("DRAMwr", "%.2f", norm(dramWr)),
			num("ExeTime", "%.2f", norm(exeUS)),
		},
	}}},

	{Name: "breakdown", cells: func(env Env) ([]*cell, error) {
		return breakdownCells(pick(env, fullGeometry, quickGeometry)), nil
	}, tables: []table{{
		title: "Latency breakdown (us): notification / queueing / service",
		head:  []string{"policy"},
		cols: []col{
			stage("notify p50", func(s *stageSink) sim.Duration { return s.notify.P50() }),
			stage("queue p50", func(s *stageSink) sim.Duration { return s.queue.P50() }),
			stage("svc p50", func(s *stageSink) sim.Duration { return s.serv.P50() }),
			stage("queue p99", func(s *stageSink) sim.Duration { return s.queue.P99() }),
			stage("svc p99", func(s *stageSink) sim.Duration { return s.serv.P99() }),
			stage("total p99", func(s *stageSink) sim.Duration { return s.total.P99() }),
		},
	}}},

	{Name: "ablations", cells: func(env Env) ([]*cell, error) {
		g := pick(env, fullGeometry, quickGeometry)
		return append(ablationCells(g), baselineCells(g)...), nil
	}, tables: []table{{
		title: "Ablations: design-choice sweeps (Fig. 9 scenario)",
		head:  []string{"param", "value"},
		cols: []col{
			num("mlcWB", "%.0f", mlcWB), num("llcWB", "%.0f", llcWB), num("dramWr", "%.0f", dramWr),
			num("exe us", "%.0f", exeUS), num("p99 us", "%.1f", p99US), num("drops", "%.0f", rxDrops),
		},
	}, {
		title: "Baselines: static DDIO vs IAT-style dynamic ways vs IDIO (100 Gbps burst)",
		head:  []string{"policy"},
		cols: []col{
			num("mlcWB", "%.0f", mlcWB), num("llcWB", "%.0f", llcWB),
			num("exe us", "%.0f", exeUS), num("p99 us", "%.1f", p99US),
			num("ddioWays(peak)", "%.0f", peakWays),
		},
	}}},

	{Name: "degradation", cells: func(env Env) ([]*cell, error) {
		return degradationCells(pick(env, fullGeometry, quickGeometry)), nil
	}, tables: []table{{
		title: "Degradation: DDIO vs IDIO under swept fault rates (drops / p99 / WB inflation)",
		head:  []string{"layer", "policy", "faultRate"},
		cols: []col{
			num("processed", "%.0f", processed),
			num("drops", "%.0f", func(r *run) float64 { return float64(r.res.NIC.MisSteers) + nicFabricDrops(r) }),
			// End-to-end client p99 on the fabric, service p99 on the host.
			num("p99us", "%.1f", func(r *run) float64 {
				if r.res.RPC != nil {
					return r.res.RPC.P99.Microseconds()
				}
				return p99US(r)
			}),
			num("mlcWB", "%.0f", mlcWB),
			num("wbInfl", "%.2f", norm(mlcWB)),
			num("injected", "%.0f", func(r *run) float64 { return float64(r.res.Faults.Total()) }),
			num("missteer", "%.0f", func(r *run) float64 { return float64(r.res.CtrlMisSteers) }),
			abortedCol,
		},
	}}},

	{Name: "rpc", cells: rpcEntryCells, tables: []table{{
		title: "RPC: end-to-end latency vs offered load over the fabric (DDIO vs IDIO)",
		head:  []string{"policy", "mode", "offered"},
		cols: slices.Concat(countCols(rpcClients), []col{num("drops", "%.0f", nicFabricDrops)},
			latencyCols(rpcClients), []col{abortedCol}),
	}}},

	{Name: "chaos", cells: func(env Env) ([]*cell, error) {
		return chaosCells(pick(env, fullGeometry, quickGeometry),
			pick[uint64](env, 20000, 10000), pick(env, 40*sim.Millisecond, 25*sim.Millisecond)), nil
	}, tables: []table{chaosTable}},

	{Name: "qos", cells: func(env Env) ([]*cell, error) {
		return qosCells(pick(env, fullGeometry, quickGeometry),
			pick[uint64](env, 96, 32), pick(env, 10*sim.Millisecond, 4*sim.Millisecond)), nil
	}, tables: []table{qosTable}},

	{Name: "churn", cells: func(env Env) ([]*cell, error) {
		return churnCells(pick(env, fullGeometry, quickGeometry),
			pick(env, []int{1_000, 32_000, 1_000_000}, []int{1_000, 65_536}),
			pick(env, 20*sim.Millisecond, 4*sim.Millisecond)), nil
	}, tables: []table{{
		title: "Churn: constant offered load over growing concurrent-flow populations (DDIO vs IDIO)",
		head:  []string{"setup", "flows"},
		cols: slices.Concat(countCols(churnClients), []col{
			churnCol("arrivals", "%.0f", func(c *idio.ChurnResults) float64 { return float64(c.Arrivals) }),
			churnCol("departures", "%.0f", func(c *idio.ChurnResults) float64 { return float64(c.Departures) }),
			churnCol("active", "%.0f", func(c *idio.ChurnResults) float64 { return float64(c.ActiveFlows) }),
			churnCol("tableLoad", "%.4f", func(c *idio.ChurnResults) float64 { return c.TableLoad }),
			churnCol("wheelTicks", "%.0f", func(c *idio.ChurnResults) float64 { return float64(c.WheelTicks) }),
			churnCol("cascades", "%.0f", func(c *idio.ChurnResults) float64 { return float64(c.WheelCascades) }),
			churnCol("nicTracked", "%.0f", func(c *idio.ChurnResults) float64 { return float64(c.NICFlowsTracked) }),
			churnCol("nicRefusals", "%.0f", func(c *idio.ChurnResults) float64 { return float64(c.NICFlowRefusals) }),
			// The LLC's I/O-classified occupancy at the end: the cache
			// footprint the placement policy granted to inbound DMA.
			num("llcIOLines", "%.0f", func(r *run) float64 { return float64(r.rig.Sys.Hier.LLCOccupancyIO()) }),
		}, latencyCols(churnClients), []col{abortedCol}),
	}}},
}

var (
	both     = []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO}
	ddioOnly = both[:1]
	idioOnly = both[1:]
)

func gbpsLabel(gbps float64) string { return fmt.Sprintf("%.0fG", gbps) }

// load is a named per-NF steady rate.
type load struct {
	name string
	gbps float64
}

// fig4Cells sweeps DDIO over rings × loads, each NF streaming cycles
// ring laps at the load's steady rate, then reruns the last (highest)
// load on the oneWay rings with the application's LLC fills confined
// to one non-DDIO way (the "_1way" partition of Fig. 4 right).
func fig4Cells(g geometry, rings []int, loads []load, cycles int, oneWay []int) []*cell {
	point := func(ring int, l load, partitioned bool) *cell {
		d := gem5NFs(idiocore.PolicyDDIO, geometry{ring, g.mlc, g.llc}, false)
		if partitioned {
			// Way 2, leaving the 2 DDIO ways untouched.
			d.Host.Hier.AppWayMask = cache.WayMask(1 << 2)
		}
		count := uint64(cycles * ring)
		steady(&d, l.gbps, count)
		// Horizon: stream duration plus generous drain time.
		gap := traffic.InterArrival(traffic.Gbps(l.gbps), d.NFs[0].FrameLen)
		d.Horizon, d.UntilIdle = sim.Duration(int64(gap)*int64(count))+50*sim.Millisecond, true
		return &cell{labels: []string{strconv.Itoa(ring), l.name, strconv.FormatBool(partitioned)}, desc: d}
	}
	var cells []*cell
	for _, ring := range rings {
		for _, l := range loads {
			cells = append(cells, point(ring, l, false))
		}
	}
	for _, ring := range oneWay {
		cells = append(cells, point(ring, loads[len(loads)-1], true))
	}
	return cells
}

// fig9Cells is Fig. 9's grid: one burst of the two TouchDrop NFs at
// 100 and 25 Gbps under each mechanism, alone and combined.
func fig9Cells(g geometry) []*cell {
	var cells []*cell
	for _, rate := range []float64{100, 25} {
		for _, pol := range []idiocore.Policy{
			idiocore.PolicyDDIO, idiocore.PolicyInvalidate, idiocore.PolicyPrefetch,
			idiocore.PolicyStatic, idiocore.PolicyIDIO,
		} {
			cells = append(cells, &cell{labels: []string{gbpsLabel(rate), pol.Name()}, desc: oneBurst(gem5NFs(pol, g, false), rate)})
		}
	}
	return cells
}

// fig10Cells puts Static and IDIO against a hidden DDIO run at each
// rate, and IDIO co-running with the LLC antagonist against DDIO with
// it.
func fig10Cells(g geometry) []*cell {
	var cells []*cell
	for _, rate := range []float64{100, 25, 10} {
		base := &cell{desc: oneBurst(gem5NFs(idiocore.PolicyDDIO, g, false), rate)}
		for _, pol := range []idiocore.Policy{idiocore.PolicyStatic, idiocore.PolicyIDIO} {
			cells = append(cells, &cell{labels: []string{gbpsLabel(rate), pol.Name()},
				desc: oneBurst(gem5NFs(pol, g, false), rate), ref: base})
		}
		cells = append(cells, &cell{labels: []string{gbpsLabel(rate), "IDIO+Antagonist"},
			desc: oneBurst(gem5NFs(idiocore.PolicyIDIO, g, true), rate),
			ref:  &cell{desc: oneBurst(gem5NFs(idiocore.PolicyDDIO, g, true), rate)}})
	}
	return cells
}

// fig11Cells runs the shallow zero-copy L2Fwd NF on 1024-byte packets
// under DDIO and IDIO, then the selective-direct-DRAM variant: class-1
// (DSCP 46) flows into a payload-dropping app, whose DRAM write rate
// the paper expects to match the RX rate.
func fig11Cells(ring int) []*cell {
	desc := func(pol idiocore.Policy, app string, dscp uint8) scenario.Desc {
		d := gem5NFs(pol, geometry{ring: ring}, false)
		for i := range d.NFs {
			d.NFs[i].App, d.NFs[i].FrameLen, d.NFs[i].DSCP = app, 1024, dscp
		}
		return oneBurst(d, 25)
	}
	direct := desc(idiocore.PolicyIDIO, "L2FwdDropPayload", 46)
	direct.Host.Classifier.ClassOneDSCPs = []uint8{46}
	return []*cell{
		{labels: []string{"DDIO"}, desc: desc(idiocore.PolicyDDIO, "L2Fwd", 0)},
		{labels: []string{"IDIO"}, desc: desc(idiocore.PolicyIDIO, "L2Fwd", 0)},
		{labels: []string{"direct-DRAM"}, desc: direct},
	}
}

// fig12Cells runs DDIO and IDIO solo and co-run with the LLC
// antagonist at each rate, each against the DDIO solo run, which is
// also the rate's first row.
func fig12Cells(g geometry) []*cell {
	var cells []*cell
	for _, rate := range []float64{100, 25, 10} {
		var solo *cell
		for _, coRun := range []bool{false, true} {
			for _, pol := range both {
				c := &cell{labels: []string{gbpsLabel(rate), pol.Name(), strconv.FormatBool(coRun)},
					desc: oneBurst(gem5NFs(pol, g, coRun), rate)}
				if solo == nil {
					solo = c
				}
				c.ref = solo
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// fig13Cells streams packets per NF at a steady 10 Gbps, just below
// the ~12 Gbps per core where the paper sees drops, under DDIO and
// IDIO.
func fig13Cells(g geometry, packets uint64, horizon sim.Duration) []*cell {
	var cells []*cell
	for _, pol := range both {
		d := gem5NFs(pol, g, false)
		steady(&d, 10, packets)
		d.Horizon, d.UntilIdle = horizon, true
		cells = append(cells, &cell{labels: []string{pol.Name()}, desc: d})
	}
	return cells
}

// fig14Cells runs IDIO's 100 Gbps burst at each mlcTHR (MTPS) against
// a hidden DDIO run; the paper shows only 100 Gbps because lower rates
// are insensitive.
func fig14Cells(g geometry, thrs []uint64) []*cell {
	base := &cell{desc: oneBurst(gem5NFs(idiocore.PolicyDDIO, g, false), 100)}
	var cells []*cell
	for _, thr := range thrs {
		d := gem5NFs(idiocore.PolicyIDIO, g, false)
		d.Host.Controller.MLCTHR = thr
		cells = append(cells, &cell{labels: []string{strconv.FormatUint(thr, 10)}, desc: oneBurst(d, 100), ref: base})
	}
	return cells
}

// breakdownCells trace every packet of the 25 Gbps burst, where the
// paper's tail effect is largest, under DDIO and IDIO. The stages show
// where IDIO's tail win comes from: service time shrinks (MLC hits
// instead of LLC/DRAM) and the queue collapses behind the faster core.
func breakdownCells(g geometry) []*cell {
	var cells []*cell
	for _, pol := range both {
		d := gem5NFs(pol, g, false)
		d.Host.Obs.TraceSampleN = 1
		cells = append(cells, &cell{labels: []string{pol.Name()}, desc: oneBurst(d, 25), arm: func(r *scenario.Rig) any {
			s := &stageSink{stats.NewLatencyDist(), stats.NewLatencyDist(), stats.NewLatencyDist(), stats.NewLatencyDist()}
			r.Sys.Observe().SetSink(s)
			return s
		}})
	}
	return cells
}

// stageSink records each traced packet's stages from its EvDone event.
type stageSink struct{ notify, queue, serv, total *stats.LatencyDist }

func (s *stageSink) Emit(e obs.Event) {
	if e.Kind != obs.EvDone {
		return
	}
	s.notify.Record(e.Ready.Sub(e.Arrival))
	s.queue.Record(e.Start.Sub(e.Ready))
	s.serv.Record(e.At.Sub(e.Start))
	s.total.Record(e.At.Sub(e.Arrival))
}

func (s *stageSink) Close() error { return nil }

// ablationCells are one-dimensional sweeps of the design choices
// DESIGN.md calls out, on the Fig. 9 run at 25 Gbps (the prefetch
// regulators and the MSHR budget at 100 Gbps, where they matter):
//
//   - DDIO ways: how much LLC must be ceded to I/O under DDIO, and
//     whether IDIO removes that sensitivity;
//   - ring size: the footprint-vs-MLC crossover of Observation 2;
//   - prefetch queue depth around Sec. V-C's 32;
//   - descriptor write-back delay: immediate, Sec. VII's ~1.9 µs, and
//     an exaggerated lag;
//   - the prefetch regulator: none (Static), the Fig. 8 FSM (IDIO),
//     and the CPU-following throttle the paper sketches as future
//     work, on Static so the throttle is the only regulator;
//   - MSHRs: how memory-level parallelism compresses the DDIO-IDIO
//     execution-time gap (EXPERIMENTS.md, deviation 1);
//   - LRU vs SRRIP replacement, and exclusive vs NINE (retain-on-hit)
//     LLC inclusion;
//   - frame size: where payload orchestration starts to pay.
func ablationCells(g geometry) []*cell {
	adaptive := gem5NFs(idiocore.PolicyStatic, g, false)
	adaptive.Host.Prefetcher.Adaptive = true
	return slices.Concat(
		axis(g, "ddioWays", both, 25, []int{1, 2, 4}, strconv.Itoa,
			func(d *scenario.Desc, w int) { d.Host.Hier.DDIOWays = w }),
		axis(g, "ring", both, 25, []int{64, 256, g.ring}, strconv.Itoa,
			func(d *scenario.Desc, ring int) { d.Host.NIC.RingSize = ring }),
		axis(g, "pfDepth", idioOnly, 25, []int{4, 32, 128}, strconv.Itoa,
			func(d *scenario.Desc, n int) { d.Host.Prefetcher.QueueDepth = n }),
		axis(g, "descWB", ddioOnly, 25, []sim.Duration{0, 1900 * sim.Nanosecond, 20 * sim.Microsecond},
			func(v sim.Duration) string { return fmt.Sprintf("%.1fus", v.Microseconds()) },
			func(d *scenario.Desc, v sim.Duration) { d.Host.NIC.DescWBDelay = v }),
		[]*cell{
			{labels: []string{"pfRegulator", "none"}, desc: oneBurst(gem5NFs(idiocore.PolicyStatic, g, false), 100)},
			{labels: []string{"pfRegulator", "fsm"}, desc: oneBurst(gem5NFs(idiocore.PolicyIDIO, g, false), 100)},
			{labels: []string{"pfRegulator", "adaptive"}, desc: oneBurst(adaptive, 100)},
		},
		axis(g, "mshrs", both, 100, []int{1, 4, 8, 32}, strconv.Itoa,
			func(d *scenario.Desc, m int) { d.Host.CPU.MSHRs = m }),
		axis(g, "repl", both, 25, []cache.Policy{cache.LRU, cache.SRRIP}, cache.Policy.String,
			func(d *scenario.Desc, p cache.Policy) { d.Host.Hier.Policy = p }),
		axis(g, "inclusion", both, 25, []bool{false, true},
			func(retain bool) string {
				if retain {
					return "nine"
				}
				return "exclusive"
			},
			func(d *scenario.Desc, retain bool) { d.Host.Hier.RetainLLCOnHit = retain }),
		axis(g, "frame", both, 25, []int{128, 512, 1514}, func(n int) string { return strconv.Itoa(n) + "B" },
			func(d *scenario.Desc, n int) {
				for i := range d.NFs {
					d.NFs[i].FrameLen = n
				}
			}),
	)
}

// axis is one ablation: for each policy, the burst at gbps with each
// value set, labelled param (with the policy when there are several)
// and the value.
func axis[T any](g geometry, param string, pols []idiocore.Policy, gbps float64, values []T,
	label func(T) string, set func(*scenario.Desc, T)) []*cell {
	var cells []*cell
	for _, pol := range pols {
		name := param
		if len(pols) > 1 {
			name += "/" + pol.Name()
		}
		for _, v := range values {
			d := gem5NFs(pol, g, false)
			set(&d, v)
			cells = append(cells, &cell{labels: []string{name, label(v)}, desc: oneBurst(d, gbps)})
		}
	}
	return cells
}

// baselineCells are the paper's Shortcoming S1 argument at 100 Gbps:
// static DDIO, an IAT-style dynamic DDIO-way policy (prior work [41])
// and IDIO. The dynamic baseline cuts DMA leaks by ceding LLC ways to
// I/O, but all inbound data still lands in the LLC, so it cannot touch
// the MLC writebacks; IDIO addresses both.
func baselineCells(g geometry) []*cell {
	tuner := idiocore.DefaultWayTunerConfig()
	dynamic := gem5NFs(idiocore.PolicyDDIO, g, false)
	dynamic.Host.DynamicDDIOWays = &tuner
	return []*cell{
		{labels: []string{"DDIO(static 2-way)"}, desc: oneBurst(gem5NFs(idiocore.PolicyDDIO, g, false), 100), table: 1},
		{labels: []string{"DynamicWays(2..4)"}, desc: oneBurst(dynamic, 100), table: 1},
		{labels: []string{"IDIO"}, desc: oneBurst(gem5NFs(idiocore.PolicyIDIO, g, false), 100), table: 1},
	}
}

// degradationCells sweep fault rates (seed 42) against each policy's
// fault-free run, which is the block's first row and its columns'
// reference. The host layer corrupts and poisons TLPs at the rate over
// a 100 Gbps burst; the fabric layer flaps and degrades the links of
// a 2-client closed-loop RPC topology (L2Fwd echo on each core). Every
// run arms the watchdog, so a fault-induced livelock is an abort, not
// a hang.
func degradationCells(g geometry) []*cell {
	var cells []*cell
	for _, layer := range []string{"host", "fabric"} {
		for _, pol := range both {
			var base *cell
			for _, rate := range []float64{0, 0.001, 0.01, 0.05} {
				var d scenario.Desc
				if layer == "host" {
					d = oneBurst(gem5NFs(pol, g, false), 100)
					d.Host.Faults = hostFaults(rate)
				} else {
					d = echoCluster(pol, 2, g, 2, link100G)
					for i := 0; i < 2; i++ {
						d.RPC = append(d.RPC, scenario.RPCClient{Core: i, ClientConfig: fnet.ClientConfig{
							Mode: fnet.ModeClosed, Outstanding: 16, Requests: 2048,
						}})
					}
					d.Horizon, d.UntilIdle = 9*sim.Millisecond, true
					d.Host.Faults = fabricFaults(rate)
				}
				armWatchdog(&d.Host)
				c := &cell{labels: []string{layer, pol.Name(), fmt.Sprintf("%.3f", rate)}, desc: d}
				if base == nil {
					base = c
				}
				c.ref = base
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// hostFaults corrupts and poisons TLPs at rate, over a fixed
// background of DRAM latency spikes and slow-core stalls, so the sweep
// also exercises the memory- and CPU-level injectors.
func hostFaults(rate float64) *fault.Config {
	if rate <= 0 {
		return nil
	}
	return &fault.Config{
		Seed: 42,
		PCIe: &fault.PCIeConfig{CorruptProb: rate, PoisonProb: rate},
		DRAMSpike: &fault.DRAMSpikeConfig{
			Period: 500 * sim.Microsecond,
			Extra:  200 * sim.Nanosecond,
			Length: 50 * sim.Microsecond,
		},
		CoreStall: &fault.CoreStallConfig{
			Period: 1 * sim.Millisecond,
			Stall:  20 * sim.Microsecond,
		},
	}
}

// fabricFaults scales fabric adversity with rate: at 0.1% a link flaps
// about every 2 ms and a rate-degradation window opens about every
// 1 ms; heavier rates shrink the periods in proportion (floored so
// events still serialize).
func fabricFaults(rate float64) *fault.Config {
	if rate <= 0 {
		return nil
	}
	period := func(base sim.Duration) sim.Duration {
		return max(sim.Duration(float64(base)*(0.001/rate)), 20*sim.Microsecond)
	}
	return &fault.Config{
		Seed:          42,
		FabricFlap:    &fault.FabricFlapConfig{Period: period(2 * sim.Millisecond), Down: 15 * sim.Microsecond},
		FabricDegrade: &fault.FabricDegradeConfig{Period: period(1 * sim.Millisecond), Factor: 0.25, Length: 100 * sim.Microsecond},
	}
}

// rpcEntryCells sweeps open-loop loads up to and past the two-core
// DUT's service capacity, and a ladder of closed-loop windows, from
// rpcBase, or from the -scenario file's run, whose own operating point
// (its first client's window, or its aggregate rate to the Mbps) joins
// the axis.
func rpcEntryCells(env Env) ([]*cell, error) {
	g := pick(env, fullGeometry, quickGeometry)
	loads := pick(env, []float64{5, 10, 20, 30, 40, 50}, []float64{5, 15, 25})
	windows := pick(env, []int{1, 4, 16, 64}, []int{1, 16})
	if env.Base == nil {
		return rpcCells(rpcBase(g, pick[uint64](env, 4096, 512)), g, loads, windows), nil
	}
	base := *env.Base
	if len(base.RPC) == 0 {
		return nil, errors.New("-exp rpc needs a scenario with a topology rpc section")
	}
	g.ring = 0 // the file's ring stays
	switch c := base.RPC[0]; c.Mode {
	case fnet.ModeClosed:
		if !slices.Contains(windows, c.Outstanding) {
			windows = append(windows, c.Outstanding)
		}
	default:
		if gbps := math.Round(float64(c.RateBps)*float64(len(base.RPC))/1e6) / 1e3; !slices.Contains(loads, gbps) {
			loads = append(loads, gbps)
		}
	}
	return rpcCells(base, g, loads, windows), nil
}

// rpcBase is the RPC sweep's own run: four clients on 100 GbE links,
// round-robin over a two-core echo DUT, each with a budget of requests
// 1514-byte requests, run until idle within 80 ms.
func rpcBase(g geometry, requests uint64) scenario.Desc {
	d := echoCluster(idiocore.PolicyDDIO, 2, g, 4, link100G)
	for i := 0; i < 4; i++ {
		d.RPC = append(d.RPC, scenario.RPCClient{Core: i % 2, ClientConfig: fnet.ClientConfig{
			Requests: requests,
			Flow:     traffic.Flow{FrameLen: 1514},
		}})
	}
	d.Horizon, d.UntilIdle = 80*sim.Millisecond, true
	return d
}

// rpcCells runs base under DDIO and IDIO with g applied: every client
// open-loop at each aggregate load, then closed-loop at each window.
func rpcCells(base scenario.Desc, g geometry, loads []float64, windows []int) []*cell {
	point := func(pol idiocore.Policy, mode fnet.Mode, gbps float64, window int, offered string) *cell {
		d := base
		d.Host.Policy = pol
		g.apply(&d.Host)
		armWatchdog(&d.Host)
		d.RPC = slices.Clone(d.RPC)
		for i := range d.RPC {
			c := &d.RPC[i].ClientConfig
			c.Mode, c.RateBps, c.Outstanding = mode, 0, window
			if mode == fnet.ModeOpen {
				c.RateBps = traffic.Gbps(gbps) / int64(len(d.RPC))
			}
		}
		return &cell{labels: []string{pol.Name(), mode.String(), offered}, desc: d}
	}
	var cells []*cell
	for _, pol := range both {
		for _, gbps := range loads {
			cells = append(cells, point(pol, fnet.ModeOpen, gbps, 0, strconv.FormatFloat(gbps, 'f', -1, 64)+"G"))
		}
		for _, w := range windows {
			cells = append(cells, point(pol, fnet.ModeClosed, 0, w, fmt.Sprintf("w=%d", w)))
		}
	}
	return cells
}

// churnCells hold 8 Gbps of 1514-byte requests constant over each
// concurrent-flow population, split over two clients, under DDIO and
// IDIO. The mean think time is population/rate, so a bigger population
// means colder per-flow state: the regime that stresses flow-table and
// timer-wheel scale rather than the link. The request budget outlasts
// the horizon, which ends every cell mid-churn.
func churnCells(g geometry, flows []int, horizon sim.Duration) []*cell {
	rate := 8e9 / float64(1514*8)
	budget := int(uint64(rate*horizon.Seconds())*2 + 64)
	var cells []*cell
	for _, pol := range both {
		for _, n := range flows {
			d := echoCluster(pol, 2, g, 2, link100G)
			for i := 0; i < 2; i++ {
				d.Churn = append(d.Churn, fnet.ChurnConfig{
					Flows:    share(n, 2, i),
					Requests: uint64(share(budget, 2, i)),
					Think:    sim.Duration(float64(sim.Second) * float64(n) / rate),
					Seed:     int64(i),
					Flow:     traffic.Flow{FrameLen: 1514},
				})
			}
			d.Horizon = horizon
			cells = append(cells, &cell{labels: []string{strings.ToLower(pol.Name()), strconv.Itoa(n)}, desc: d})
		}
	}
	return cells
}

// share splits total evenly over n slots, the remainder to the lowest
// slots (the scenario schema's convention).
func share(total, n, i int) int {
	s := total / n
	if i < total%n {
		s++
	}
	return s
}

// The per-run metrics the columns and Verify read.

func mlcWB(r *run) float64     { return float64(r.res.Hier.MLCWriteback) }
func llcWB(r *run) float64     { return float64(r.res.Hier.LLCWriteback) }
func dramRd(r *run) float64    { return float64(r.res.DRAMReads) }
func dramWr(r *run) float64    { return float64(r.res.DRAMWrites) }
func exeUS(r *run) float64     { return r.res.ExeTime.Microseconds() }
func p50US(r *run) float64     { return r.res.P50Across().Microseconds() }
func p99US(r *run) float64     { return r.res.P99Across().Microseconds() }
func rxDrops(r *run) float64   { return float64(r.res.NIC.RxDrops) }
func processed(r *run) float64 { return float64(r.res.TotalProcessed()) }

func dramRdGbps(r *run) float64 { return stats.Gbps(r.res.DRAMReads*64, r.res.Now.Sub(0)) }
func dramWrGbps(r *run) float64 { return stats.Gbps(r.res.DRAMWrites*64, r.res.Now.Sub(0)) }
func rxGbps(r *run) float64     { return stats.Gbps(r.res.NIC.RxBytes, r.res.Now.Sub(0)) }

// Fig. 4's MLC writeback and invalidation bytes over the received
// bytes.
func mlcWBPerRX(r *run) float64    { return perRX(r, r.res.Hier.MLCWriteback) }
func mlcInvalPerRX(r *run) float64 { return perRX(r, r.res.Hier.MLCInval) }

func perRX(r *run, lines uint64) float64 {
	return ratio(float64(lines*64), float64(r.res.NIC.RxBytes))
}

// normNA is a column of m relative to the reference run's m, "n/a"
// where that is undefined.
func normNA(head string, m func(*run) float64) col {
	return col{head, func(r *run) string {
		if v := norm(m)(r); v >= 0 {
			return fmt.Sprintf("%.2f", v)
		}
		return "n/a"
	}}
}

// antCPI is the co-run antagonist's CPI while the burst was in flight
// (first inbound DMA to last packet completion); outside that window
// it runs uncontended and would dilute the comparison. It is 0 without
// an antagonist.
func antCPI(r *run) float64 {
	a := r.rig.Antagonist
	if a == nil {
		return 0
	}
	cpi := a.CPI()
	if first, ok := r.rig.Sys.FirstDMAAt(); ok {
		var lastDone sim.Time
		for _, cr := range r.res.Cores {
			lastDone = max(lastDone, cr.LastDoneAt)
		}
		if w := a.CPIBetween(first, lastDone); w > 0 {
			cpi = w
		}
	}
	return cpi
}

// peakWays is the largest DDIO way allocation of the run: the dynamic
// baseline's peak (it shrinks back once the burst drains), else the
// static count.
func peakWays(r *run) float64 {
	if t := r.rig.Sys.WayTuner; t != nil {
		return float64(t.PeakWays)
	}
	return float64(r.rig.Sys.Hier.DDIOWays())
}

// fabricDrops sums every link's losses: an arrival ends as exactly one
// of Tx, TailDrops, DownDrops or AQMDrops.
func fabricDrops(res idio.Results) uint64 {
	var n uint64
	if f := res.Fabric; f != nil {
		for _, l := range f.Links {
			n += l.Stats.TailDrops + l.Stats.DownDrops + l.Stats.AQMDrops
		}
	}
	return n
}

// nicFabricDrops adds the DUT's ring, pool and link-down drops to the
// fabric's.
func nicFabricDrops(r *run) float64 {
	n := r.res.NIC
	return float64(n.RxDrops + n.PoolDrops + n.LinkDownDrops + fabricDrops(r.res))
}

var abortedCol = col{"aborted", func(r *run) string { return strconv.FormatBool(r.res.Aborted != nil) }}

// stage is a breakdown column: one stage percentile of the run's sink.
func stage(head string, q func(*stageSink) sim.Duration) col {
	return num(head, "%.2f", func(r *run) float64 { return q(r.probe.(*stageSink)).Microseconds() })
}

// clients is what the fabric tables read of a client population: the
// RPC or churn aggregate, or one QoS class.
type clients struct {
	issued, resp, timeouts uint64
	goodputBps             float64
	p50, p99, p999         sim.Duration
}

func rpcClients(r *run) clients {
	c := r.res.RPC
	if c == nil {
		return clients{}
	}
	return clients{c.Issued, c.Responses, c.Timeouts, c.GoodputBps, c.P50, c.P99, c.P999}
}

func churnClients(r *run) clients {
	c := r.res.Churn
	if c == nil {
		return clients{}
	}
	return clients{c.Issued, c.Responses, c.Timeouts, c.GoodputBps, c.P50, c.P99, c.P999}
}

// countCols are a population's issued, resp and timeouts columns.
func countCols(of func(*run) clients) []col {
	return []col{
		num("issued", "%.0f", func(r *run) float64 { return float64(of(r).issued) }),
		num("resp", "%.0f", func(r *run) float64 { return float64(of(r).resp) }),
		num("timeouts", "%.0f", func(r *run) float64 { return float64(of(r).timeouts) }),
	}
}

// latencyCols are a population's goodput and latency percentiles.
func latencyCols(of func(*run) clients) []col {
	return []col{
		num("goodputGbps", "%.2f", func(r *run) float64 { return of(r).goodputBps / 1e9 }),
		num("p50us", "%.2f", func(r *run) float64 { return of(r).p50.Microseconds() }),
		num("p99us", "%.2f", func(r *run) float64 { return of(r).p99.Microseconds() }),
		num("p999us", "%.2f", func(r *run) float64 { return of(r).p999.Microseconds() }),
	}
}

// churnCol is a column of the run's churn aggregate (0 without one).
func churnCol(head, format string, m func(*idio.ChurnResults) float64) col {
	return num(head, format, func(r *run) float64 {
		if r.res.Churn == nil {
			return 0
		}
		return m(r.res.Churn)
	})
}
