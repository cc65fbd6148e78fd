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
//	                                      # sweep from the file's run
//
// The experiments are experiment.Catalogue's entries (`idiosim -h`
// lists them), plus verify and all.
//
// Every experiment cell simulates an independent System, so -j only
// changes wall-clock time: the tables and CSVs are byte-identical for
// any parallelism level.
package main

import (
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
	exp := flag.String("exp", "fig10", "experiment to run: "+expChoices())
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
	reportPath := flag.String("report", "", "regenerate every experiment and the reproduction claims into a markdown report at this path")
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

	// -exp rpc composes with -scenario: the sweep starts from the
	// scenario's run instead of replacing it, so the short-circuit
	// below is skipped in that combination.
	if *scenarioPath != "" && *exp != "rpc" {
		opts := scenarioOpts{
			statsPath:       *statsPath,
			jsonPath:        *jsonPath,
			tracePath:       *tracePath,
			traceSample:     *traceSample,
			metricsInterval: *metricsInterval,
			metricsPath:     *metricsPath,
		}
		if err := runScenario(*scenarioPath, opts, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	env := experiment.Env{Quick: *quick, Parallelism: *par}
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := experiment.WriteReport(f, env); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[report written to %s]\n", *reportPath)
		return
	}
	if *exp == "verify" {
		if failed := experiment.Verify(os.Stdout); failed > 0 {
			fatal(fmt.Errorf("%d reproduction claims failed", failed))
		}
		return
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}
	outs, err := runExperiments(*exp, *scenarioPath, env)
	if err != nil {
		fatal(err)
	}
	// Outputs are flushed in catalogue order, keeping stdout
	// byte-identical to a serial run.
	for _, o := range outs {
		os.Stdout.Write(o.Text.Bytes())
		if o.Err != nil {
			fatal(o.Err)
		}
		for _, f := range o.Files {
			if err := writeCSV(*csvDir, f); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", o.Name, o.Elapsed.Round(time.Millisecond))
	}
}

// runExperiments renders -exp name — one catalogue entry, or "all" for
// the whole catalogue, fanned out over env.Parallelism workers. A
// non-empty scenarioPath compiles the scenario into the run the rpc
// sweep starts from (experiment.Env.Base).
func runExperiments(name, scenarioPath string, env experiment.Env) ([]*experiment.Output, error) {
	targets := experiment.Catalogue
	if name != "all" {
		e, ok := experiment.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (want %s)", name, expChoices())
		}
		targets = []experiment.Experiment{e}
	}
	if scenarioPath != "" {
		sc, err := loadScenario(scenarioPath)
		if err != nil {
			return nil, err
		}
		d, err := sc.Compile()
		if err != nil {
			return nil, err
		}
		env.Base = &d
	}
	return experiment.RunAll(targets, env), nil
}

// expChoices lists what -exp takes: every catalogue entry, verify and
// all.
func expChoices() string {
	names := make([]string, 0, len(experiment.Catalogue)+2)
	for _, e := range experiment.Catalogue {
		names = append(names, e.Name)
	}
	return strings.Join(append(names, "verify", "all"), "|")
}

// writeCSV writes one side file into the CSV directory; a no-op when
// -csv is unset.
func writeCSV(dir string, f experiment.SeriesFile) error {
	if dir == "" {
		return nil
	}
	out, err := os.Create(filepath.Join(dir, f.Name))
	if err != nil {
		return err
	}
	if err := experiment.WriteSeriesCSV(out, f.Series...); err != nil {
		out.Close()
		return err
	}
	return out.Close()
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

// scenarioOpts bundles the -scenario output flags.
type scenarioOpts struct {
	statsPath       string
	jsonPath        string
	tracePath       string
	traceSample     int
	metricsInterval time.Duration
	metricsPath     string
}

// runScenario executes a JSON scenario file and prints its summary to
// stdout, optionally writing a flat stats dump, a metrics JSON document, a
// packet trace (per-packet CSV for a .csv path, else Chrome JSON), and a
// metric-snapshot CSV series.
func runScenario(path string, o scenarioOpts, stdout io.Writer) error {
	sc, err := loadScenario(path)
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
