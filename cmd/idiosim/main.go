// Command idiosim regenerates the paper's figures from the simulator.
//
// Usage:
//
//	idiosim -exp fig10                    # one experiment, table to stdout
//	idiosim -exp all -csv out/            # everything, timelines as CSV
//	idiosim -exp all -j 8                 # fan the grids out over 8 workers
//	idiosim -exp fig9 -quick              # reduced-size run (CI-friendly)
//	idiosim -exp verify                   # PASS/FAIL reproduction claims
//	idiosim -report report.md             # full markdown report
//	idiosim -scenario s.json -stats s.txt # custom JSON scenario + stats dump
//	idiosim -scenario s.json -json r.json # schema-versioned metrics JSON
//	idiosim -scenario s.json -trace t.json -trace-sample 8
//	                                      # Chrome/Perfetto packet-journey trace
//	idiosim -scenario s.json -trace t.csv # per-packet latency-breakdown CSV
//	idiosim -scenario s.json -metrics-interval 10us -metrics m.csv
//	                                      # periodic metric snapshots as CSV
//	idiosim -exp all -cpuprofile cpu.pprof -memprofile mem.pprof
//	idiosim -exp rpc                      # latency-vs-load over the fabric
//	idiosim -exp rpc -scenario scenarios/rpc_closed_loop.json
//	                                      # sweep parameterised by a topology
//
// Experiments: fig4 fig5 fig9 fig10 fig11 fig12 fig13 fig14 breakdown
// ablations degradation rpc chaos qos churn verify all.
//
// Every experiment cell simulates an independent System, so -j only
// changes wall-clock time: the tables and CSVs are byte-identical for
// any parallelism level.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"idio/internal/experiment"
	"idio/internal/obs"
	"idio/internal/scenario"
	"idio/internal/sim"
)

func main() {
	exp := flag.String("exp", "fig10", "experiment to run: fig4|fig5|fig9|fig10|fig11|fig12|fig13|fig14|breakdown|ablations|degradation|rpc|chaos|qos|churn|verify|all")
	csvDir := flag.String("csv", "", "directory to write timeline CSVs into (optional)")
	quick := flag.Bool("quick", false, "run reduced-size variants (256-entry rings, scaled caches)")
	par := flag.Int("j", 1, "worker-pool size for experiment grids (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	scenarioPath := flag.String("scenario", "", "run a JSON scenario file instead of a named experiment")
	statsPath := flag.String("stats", "", "write a flat key=value stats dump for -scenario runs")
	jsonPath := flag.String("json", "", "write schema-versioned metrics JSON for -scenario runs ('-' for stdout)")
	tracePath := flag.String("trace", "", "write the packet journey of -scenario runs: a per-packet latency-breakdown CSV for a .csv path, else a Chrome trace-event JSON (Perfetto-loadable)")
	traceSample := flag.Int("trace-sample", 1, "with -trace, follow every Nth packet")
	metricsInterval := flag.Duration("metrics-interval", 0, "record metric-registry snapshots at this period for -scenario runs (e.g. 10us)")
	metricsPath := flag.String("metrics", "", "write the -metrics-interval snapshot series as CSV ('-' for stdout)")
	shards := flag.Int("shards", 0, "partition a -scenario topology into this many event domains, run in turn on one goroutine (0 = use the scenario's setting; output is byte-identical across shard counts)")
	reportPath := flag.String("report", "", "regenerate everything and write a markdown report to this path")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeMemProfile(*memProfile)
	}

	r := &runner{csvDir: *csvDir, quick: *quick, par: *par}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}
	// -exp rpc composes with -scenario: the scenario's topology
	// parameterises the sweep instead of replacing it, so the short-
	// circuit below is skipped in that combination.
	if *scenarioPath != "" && *exp == "rpc" {
		sc, err := loadScenario(*scenarioPath)
		if err != nil {
			fatal(err)
		}
		r.rpcScenario = &sc
	} else if *scenarioPath != "" {
		opts := scenarioOpts{
			statsPath:       *statsPath,
			jsonPath:        *jsonPath,
			tracePath:       *tracePath,
			traceSample:     *traceSample,
			metricsInterval: *metricsInterval,
			metricsPath:     *metricsPath,
			shards:          *shards,
		}
		if err := runScenario(*scenarioPath, opts, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := experiment.WriteReport(f, experiment.ReportOpts{Quick: *quick, Parallelism: *par}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[report written to %s]\n", *reportPath)
		return
	}

	all := []string{"fig4", "fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "breakdown", "ablations", "degradation", "rpc", "chaos", "qos", "churn"}
	targets := []string{*exp}
	if *exp == "all" {
		targets = all
	}
	// Each experiment renders into a private buffer so -exp all can fan
	// the targets themselves out over the pool; buffers are flushed in
	// the fixed target order, keeping stdout byte-identical to a serial
	// run.
	type expResult struct {
		out     bytes.Buffer
		elapsed time.Duration
		err     error
	}
	results := experiment.RunCells(r.par, targets, func(name string) *expResult {
		res := &expResult{}
		start := time.Now()
		res.err = r.run(name, &res.out)
		res.elapsed = time.Since(start)
		return res
	})
	for i, res := range results {
		os.Stdout.Write(res.out.Bytes())
		if res.err != nil {
			fatal(res.err)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", targets[i], res.elapsed.Round(time.Millisecond))
	}
}

type runner struct {
	csvDir string
	quick  bool
	par    int
	// rpcScenario, when set, parameterises -exp rpc from a scenario
	// file's topology section.
	rpcScenario *scenario.Scenario
}

// scale shrinks a figure's geometry for -quick runs.
const (
	quickRing = 256
	quickMLC  = 256 << 10
	quickLLC  = 768 << 10
)

func (r *runner) run(name string, w io.Writer) error {
	switch name {
	case "fig4":
		opts := experiment.DefaultFig4Opts()
		opts.Parallelism = r.par
		if r.quick {
			opts.Rings = []int{64, quickRing}
			opts.OneWayRings = []int{quickRing}
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
			opts.Loads["low"] = 0.5
		}
		rows := experiment.Fig4(opts)
		return experiment.WriteTable(w, "Fig 4: MLC/DRAM leaks vs load and ring size (DDIO baseline)",
			experiment.Fig4Header(), experiment.Rows(rows))

	case "fig5":
		opts := experiment.DefaultFig5Opts()
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
		}
		res := experiment.Fig5(opts)
		fmt.Fprintf(w, "== Fig 5: bursty TouchDrop under DDIO ==\n")
		fmt.Fprintf(w, "processed=%d  totalMLCWB=%d  totalLLCWB=%d  (timeline: %d buckets)\n",
			res.Processed, res.TotalMLCWB, res.TotalLLCWB, len(res.MLCWB.Points))
		return r.csv("fig5_timeline.csv", res.MLCWB, res.LLCWB, res.DMA)

	case "fig9":
		opts := experiment.DefaultFig9Opts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
		}
		cells := experiment.Fig9(opts)
		rows := make([]experiment.TableRow, len(cells))
		for i, c := range cells {
			rows[i] = c
		}
		if err := experiment.WriteTable(w, "Fig 9: per-mechanism burst comparison (2x TouchDrop)",
			experiment.Fig9Header(), rows); err != nil {
			return err
		}
		for _, c := range cells {
			name := fmt.Sprintf("fig9_%s_%.0fG.csv", c.Policy.Name(), c.RateGbps)
			if err := r.csv(name, c.MLCWB, c.LLCWB, c.DMA); err != nil {
				return err
			}
		}
		return nil

	case "fig10":
		opts := experiment.DefaultFig10Opts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
		}
		rows := experiment.Fig10(opts)
		return experiment.WriteTable(w,
			"Fig 10: Static/IDIO normalized to DDIO (lower is better)",
			experiment.Fig10Header(), experiment.Rows(rows))

	case "fig11":
		opts := experiment.DefaultFig11Opts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
		}
		res := experiment.Fig11(opts)
		fmt.Fprintf(w, "== Fig 11: L2Fwd (zero-copy shallow NF), %d-byte packets ==\n", opts.FrameLen)
		fmt.Fprintf(w, "DDIO: mlcWB=%d llcWB=%d dramWr=%d exe=%.0fus\n",
			res.DDIO.Summary.MLCWB, res.DDIO.Summary.LLCWB, res.DDIO.Summary.DRAMWrites, res.DDIO.Summary.ExeTimeUS)
		fmt.Fprintf(w, "IDIO: mlcWB=%d llcWB=%d dramWr=%d exe=%.0fus\n",
			res.IDIO.Summary.MLCWB, res.IDIO.Summary.LLCWB, res.IDIO.Summary.DRAMWrites, res.IDIO.Summary.ExeTimeUS)
		fmt.Fprintf(w, "Direct-DRAM variant (class-1 payload): RX=%.2f Gbps, DRAM write=%.2f Gbps\n",
			res.DirectDRAM.RxGbps, res.DirectDRAM.DRAMWriteGbps)
		if err := r.csv("fig11_ddio.csv", res.DDIO.MLCWB, res.DDIO.LLCWB); err != nil {
			return err
		}
		return r.csv("fig11_idio.csv", res.IDIO.MLCWB, res.IDIO.LLCWB)

	case "fig12":
		opts := experiment.DefaultFig12Opts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
		}
		rows := experiment.Fig12(opts)
		return experiment.WriteTable(w,
			"Fig 12: p50/p99 latency normalized to DDIO solo",
			experiment.Fig12Header(), experiment.Rows(rows))

	case "fig13":
		opts := experiment.DefaultFig13Opts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
			opts.Packets = 2048
		}
		res := experiment.Fig13(opts)
		fmt.Fprintf(w, "== Fig 13: steady traffic (10 Gbps per TouchDrop) ==\n")
		fmt.Fprintf(w, "DDIO: mlcWB=%d llcWB=%d drops=%d p99=%.1fus\n",
			res.DDIO.Summary.MLCWB, res.DDIO.Summary.LLCWB, res.DDIO.Summary.Drops, res.DDIO.Summary.P99US)
		fmt.Fprintf(w, "IDIO: mlcWB=%d llcWB=%d drops=%d p99=%.1fus\n",
			res.IDIO.Summary.MLCWB, res.IDIO.Summary.LLCWB, res.IDIO.Summary.Drops, res.IDIO.Summary.P99US)
		if err := r.csv("fig13_ddio.csv", res.DDIO.MLCWB, res.DDIO.LLCWB); err != nil {
			return err
		}
		return r.csv("fig13_idio.csv", res.IDIO.MLCWB, res.IDIO.LLCWB)

	case "fig14":
		opts := experiment.DefaultFig14Opts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
		}
		rows := experiment.Fig14(opts)
		return experiment.WriteTable(w,
			"Fig 14: IDIO sensitivity to mlcTHR at 100 Gbps (normalized to DDIO)",
			experiment.Fig14Header(), experiment.Rows(rows))

	case "breakdown":
		opts := experiment.DefaultBreakdownOpts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
		}
		rows := experiment.Breakdown(opts)
		return experiment.WriteTable(w,
			"Latency breakdown (us): notification / queueing / service",
			experiment.BreakdownHeader(), experiment.Rows(rows))

	case "rpc":
		opts := experiment.DefaultRPCOpts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
			opts.Requests = 512
			opts.LoadsGbps = []float64{5, 15, 25}
			opts.Windows = []int{1, 16}
		}
		if r.rpcScenario != nil {
			if err := applyRPCScenario(&opts, r.rpcScenario); err != nil {
				return err
			}
		}
		rows := experiment.RPC(opts)
		return experiment.WriteTable(w,
			"RPC: end-to-end latency vs offered load over the fabric (DDIO vs IDIO)",
			experiment.RPCHeader(), experiment.Rows(rows))

	case "qos":
		opts := experiment.DefaultQoSOpts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
			opts.EFRequests = 32
			opts.Horizon = 4 * sim.Millisecond
		}
		rows := experiment.QoS(opts)
		return experiment.WriteTable(w,
			"QoS: per-class SLOs under a saturating bulk+scavenger mix (DDIO vs IDIO vs QoS-aware IDIO)",
			experiment.QoSHeader(), experiment.Rows(rows))

	case "churn":
		opts := experiment.DefaultChurnOpts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
			opts.Flows = []int{1_000, 65_536}
			opts.Horizon = 4 * sim.Millisecond
		}
		rows := experiment.Churn(opts)
		return experiment.WriteTable(w,
			"Churn: constant offered load over growing concurrent-flow populations (DDIO vs IDIO)",
			experiment.ChurnHeader(), experiment.Rows(rows))

	case "chaos":
		opts := experiment.DefaultChaosOpts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
			opts.Requests = 10000
			opts.Horizon = 25 * sim.Millisecond
		}
		rows := experiment.Chaos(opts)
		return experiment.WriteTable(w,
			"Chaos: scripted fault timeline, per-phase behaviour and time-to-recover (DDIO vs IDIO)",
			experiment.ChaosHeader(), experiment.Rows(rows))

	case "degradation":
		opts := experiment.DefaultDegradationOpts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
		}
		rows := experiment.Degradation(opts)
		return experiment.WriteTable(w,
			"Degradation: DDIO vs IDIO under swept fault rates (drops / p99 / WB inflation)",
			experiment.DegradationHeader(), experiment.Rows(rows))

	case "verify":
		if failed := experiment.Verify(w); failed > 0 {
			return fmt.Errorf("%d reproduction claims failed", failed)
		}
		return nil

	case "ablations":
		opts := experiment.DefaultAblationOpts()
		opts.Parallelism = r.par
		if r.quick {
			opts.RingSize = quickRing
			opts.MLCSize, opts.LLCSize = quickMLC, quickLLC
		}
		var rows []experiment.AblationRow
		rows = append(rows, experiment.AblationDDIOWays(opts, []int{1, 2, 4})...)
		rows = append(rows, experiment.AblationRingSize(opts, []int{64, 256, opts.RingSize})...)
		rows = append(rows, experiment.AblationPrefetchDepth(opts, []int{4, 32, 128})...)
		rows = append(rows, experiment.AblationDescCoalescing(opts,
			[]sim.Duration{0, 1900 * sim.Nanosecond, 20 * sim.Microsecond})...)
		hot := opts
		hot.RateGbps = 100
		rows = append(rows, experiment.AblationAdaptivePrefetch(hot)...)
		rows = append(rows, experiment.AblationMLP(hot, []int{1, 4, 8, 32})...)
		rows = append(rows, experiment.AblationReplacement(opts)...)
		rows = append(rows, experiment.AblationInclusion(opts)...)
		rows = append(rows, experiment.AblationFrameSize(opts, []int{128, 512, 1514})...)
		if err := experiment.WriteTable(w, "Ablations: design-choice sweeps (Fig. 9 scenario)",
			experiment.AblationHeader(), experiment.Rows(rows)); err != nil {
			return err
		}
		baseOpts := experiment.DefaultBaselineOpts()
		baseOpts.Parallelism = r.par
		if r.quick {
			baseOpts.RingSize = quickRing
			baseOpts.MLCSize, baseOpts.LLCSize = quickMLC, quickLLC
		}
		return experiment.WriteTable(w,
			"Baselines: static DDIO vs IAT-style dynamic ways vs IDIO (100 Gbps burst)",
			experiment.BaselineHeader(), experiment.Rows(experiment.Baselines(baseOpts)))

	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

// csv writes series into the CSV directory; a no-op when -csv is
// unset.
func (r *runner) csv(name string, series ...experiment.Series) error {
	if r.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(r.csvDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return experiment.WriteSeriesCSV(f, series...)
}

// loadScenario parses and validates a scenario file.
func loadScenario(path string) (scenario.Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return scenario.Scenario{}, err
	}
	defer f.Close()
	return scenario.Load(f)
}

// applyRPCScenario maps a scenario's topology onto the RPC sweep:
// geometry (cores, clients, links, ring) and request shape come from
// the file, and the scenario's own operating point is folded into the
// swept axis so the curve always includes it.
func applyRPCScenario(o *experiment.RPCOpts, sc *scenario.Scenario) error {
	topo := sc.Topology
	if topo == nil {
		return fmt.Errorf("scenario %q has no topology section; -exp rpc needs one", sc.Name)
	}
	o.Cores = sc.Cores
	o.Clients = topo.Clients
	o.Link = topo.ClientLink.LinkConfig()
	if sc.RingSize > 0 {
		o.RingSize = sc.RingSize
	}
	if sc.HorizonMS > 0 {
		o.Horizon = sim.Duration(sc.HorizonMS * float64(sim.Millisecond))
	}
	rpc := topo.RPC
	if rpc == nil {
		return nil
	}
	if rpc.FrameLen > 0 {
		o.FrameLen = rpc.FrameLen
	}
	if rpc.Requests > 0 {
		o.Requests = rpc.Requests
	}
	if rpc.TimeoutUS > 0 {
		o.Timeout = sim.Duration(rpc.TimeoutUS * float64(sim.Microsecond))
	}
	switch rpc.Mode {
	case "closed":
		if rpc.Outstanding > 0 && !containsInt(o.Windows, rpc.Outstanding) {
			o.Windows = append(o.Windows, rpc.Outstanding)
		}
	case "open", "ramp":
		if rpc.Gbps > 0 && !containsFloat(o.LoadsGbps, rpc.Gbps) {
			o.LoadsGbps = append(o.LoadsGbps, rpc.Gbps)
		}
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsFloat(xs []float64, x float64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// scenarioOpts bundles the -scenario output flags.
type scenarioOpts struct {
	statsPath       string
	jsonPath        string
	tracePath       string
	traceSample     int
	metricsInterval time.Duration
	metricsPath     string
	shards          int
}

// runScenario executes a JSON scenario file and prints its summary to
// stdout, optionally writing a flat stats dump, a metrics JSON document, a
// packet trace (per-packet CSV for a .csv path, else Chrome JSON), and a
// metric-snapshot CSV series.
func runScenario(path string, o scenarioOpts, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := scenario.Load(f)
	if err != nil {
		return err
	}
	var ropts scenario.RunOpts
	if o.tracePath != "" {
		if o.traceSample <= 0 {
			return fmt.Errorf("-trace-sample must be positive, got %d", o.traceSample)
		}
		tf, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		ropts.TraceSampleN = o.traceSample
		if strings.HasSuffix(o.tracePath, ".csv") {
			ropts.TraceSink = obs.NewCSVSink(tf)
		} else {
			ropts.TraceSink = obs.NewChromeSink(tf)
		}
	}
	if o.metricsInterval > 0 {
		ropts.MetricsInterval = sim.Duration(o.metricsInterval.Nanoseconds()) * sim.Nanosecond
	} else if o.metricsPath != "" {
		return fmt.Errorf("-metrics needs -metrics-interval > 0")
	}
	if o.shards > 0 {
		if sc.Topology == nil {
			return fmt.Errorf("-shards needs a scenario with a topology section")
		}
		ropts.Shards = o.shards
	}
	sys, res, cpi, err := scenario.RunSystemOpts(sc, ropts)
	if err != nil {
		return err
	}
	if ropts.TraceSink != nil {
		if err := sys.Observe().CloseSink(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%d trace events written to %s]\n",
			sys.Observe().EventsEmitted(), o.tracePath)
	}
	fmt.Fprintf(stdout, "== scenario %q (%s) ==\n", sc.Name, sc.Policy)
	fmt.Fprint(stdout, res)
	if cpi > 0 {
		fmt.Fprintf(stdout, "  antagonist CPI: %.1f\n", cpi)
	}
	if o.statsPath != "" {
		sf, err := os.Create(o.statsPath)
		if err != nil {
			return err
		}
		defer sf.Close()
		if err := res.WriteStats(sf); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[stats written to %s]\n", o.statsPath)
	}
	if o.jsonPath != "" {
		if err := writeTo(o.jsonPath, res.WriteJSON); err != nil {
			return err
		}
	}
	if o.metricsPath != "" {
		if err := writeTo(o.metricsPath, res.MetricSeries.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// writeTo runs emit against the named file, or stdout for "-".
func writeTo(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[written to %s]\n", path)
	return nil
}

// writeMemProfile snapshots the heap after a full GC so -memprofile
// reflects live steady-state allocations, not transient garbage.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idiosim:", err)
	os.Exit(1)
}
