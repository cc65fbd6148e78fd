package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"idio/internal/scenario"
	"idio/internal/sim"
)

// The -quick geometry: 256-entry rings with the caches scaled 4x down.
// Every catalogue entry's -quick overrides and Verify's reduced-scale
// claims use it.
const (
	quickRing = 256
	quickMLC  = 256 << 10
	quickLLC  = 768 << 10
)

var quickGeometry = Geometry{RingSize: quickRing, MLCSize: quickMLC, LLCSize: quickLLC}

// Experiment is one catalogue entry: a named generator of the text
// output (tables or summary lines) that reproduces one part of the
// paper's evaluation.
type Experiment struct {
	Name string
	// run renders the entry under env into w and returns its CSV side
	// files (timelines), which the caller may write or ignore.
	run func(w io.Writer, env Env) ([]SeriesFile, error)
}

// Env is how a catalogue entry runs.
type Env struct {
	// Quick applies the entry's reduced-size overrides.
	Quick bool
	// Parallelism bounds the entry's worker pool (0 = GOMAXPROCS,
	// 1 = serial); the output is identical at every setting.
	Parallelism int
	// Base, when non-nil, is the compiled scenario of `idiosim -exp rpc
	// -scenario f`: the rpc entry sweeps from it, keeping its ring and
	// applying only the -quick cache sizes. Other entries ignore it.
	Base *scenario.Desc
}

// SeriesFile is one CSV side file: timelines sharing a time axis.
type SeriesFile struct {
	Name   string
	Series []Series
}

// Output is one entry's rendering by RunAll.
type Output struct {
	Name    string
	Text    bytes.Buffer
	Files   []SeriesFile
	Elapsed time.Duration
	Err     error
}

// RunAll renders every experiment into a private buffer, fanning the
// experiments out over env.Parallelism workers (each entry also bounds
// its own grid by it). Outputs come back in input order and, since
// every cell is deterministic in isolation, byte-identical at any
// parallelism.
func RunAll(exps []Experiment, env Env) []*Output {
	return RunCells(env.Parallelism, exps, func(e Experiment) *Output {
		o := &Output{Name: e.Name}
		start := time.Now()
		o.Files, o.Err = e.run(&o.Text, env)
		o.Elapsed = time.Since(start)
		return o
	})
}

// Lookup returns the catalogue entry with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Catalogue {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// scale sets *par to env's parallelism and, under -quick, *g to the
// quick geometry. A nil par is skipped.
func (env Env) scale(par *int, g *Geometry) {
	if par != nil {
		*par = env.Parallelism
	}
	if env.Quick {
		*g = quickGeometry
	}
}

// scaleRing is scale for the entries that keep the default caches even
// under -quick: only the ring shrinks.
func (env Env) scaleRing(par, ring *int) {
	*par = env.Parallelism
	if env.Quick {
		*ring = quickRing
	}
}

// entry assembles a catalogue entry from its typed parts: opts builds
// the options under env (defaults, parallelism, -quick overrides), and
// render runs them and writes the text output.
func entry[O any](name string, opts func(Env) O, render func(io.Writer, O) ([]SeriesFile, error)) Experiment {
	return Experiment{Name: name, run: func(w io.Writer, env Env) ([]SeriesFile, error) {
		return render(w, opts(env))
	}}
}

// Catalogue is every experiment, in the order `idiosim -exp all` and
// the report run them.
var Catalogue = []Experiment{
	entry("fig4", func(env Env) Fig4Opts {
		o := DefaultFig4Opts()
		o.Parallelism = env.Parallelism
		if env.Quick {
			o.Rings, o.OneWayRings = []int{64, quickRing}, []int{quickRing}
			o.MLCSize, o.LLCSize = quickMLC, quickLLC
			o.Loads["low"] = 0.5
		}
		return o
	}, func(w io.Writer, o Fig4Opts) ([]SeriesFile, error) {
		return nil, WriteTable(w, "Fig 4: MLC/DRAM leaks vs load and ring size (DDIO baseline)",
			Fig4Header(), Rows(Fig4(o)))
	}),

	entry("fig5", func(env Env) Fig5Opts {
		o := DefaultFig5Opts()
		env.scale(nil, &o.Geometry)
		return o
	}, func(w io.Writer, o Fig5Opts) ([]SeriesFile, error) {
		res := Fig5(o)
		_, err := fmt.Fprintf(w, "== Fig 5: bursty TouchDrop under DDIO ==\n"+
			"processed=%d  totalMLCWB=%d  totalLLCWB=%d  (timeline: %d buckets)\n",
			res.Processed, res.TotalMLCWB, res.TotalLLCWB, len(res.MLCWB.Points))
		return []SeriesFile{{"fig5_timeline.csv", []Series{res.MLCWB, res.LLCWB, res.DMA}}}, err
	}),

	entry("fig9", func(env Env) Fig9Opts {
		o := DefaultFig9Opts()
		env.scale(&o.Parallelism, &o.Geometry)
		return o
	}, func(w io.Writer, o Fig9Opts) ([]SeriesFile, error) {
		cells := Fig9(o)
		files := make([]SeriesFile, len(cells))
		for i, c := range cells {
			files[i] = SeriesFile{fmt.Sprintf("fig9_%s_%.0fG.csv", c.Policy.Name(), c.RateGbps),
				[]Series{c.MLCWB, c.LLCWB, c.DMA}}
		}
		return files, WriteTable(w, "Fig 9: per-mechanism burst comparison (2x TouchDrop)",
			Fig9Header(), Rows(cells))
	}),

	entry("fig10", func(env Env) Fig10Opts {
		o := DefaultFig10Opts()
		env.scale(&o.Parallelism, &o.Geometry)
		return o
	}, func(w io.Writer, o Fig10Opts) ([]SeriesFile, error) {
		return nil, WriteTable(w, "Fig 10: Static/IDIO normalized to DDIO (lower is better)",
			Fig10Header(), Rows(Fig10(o)))
	}),

	entry("fig11", func(env Env) Fig11Opts {
		o := DefaultFig11Opts()
		env.scaleRing(&o.Parallelism, &o.RingSize)
		return o
	}, func(w io.Writer, o Fig11Opts) ([]SeriesFile, error) {
		res := Fig11(o)
		d, i := res.DDIO.Summary, res.IDIO.Summary
		_, err := fmt.Fprintf(w, "== Fig 11: L2Fwd (zero-copy shallow NF), %d-byte packets ==\n"+
			"DDIO: mlcWB=%d llcWB=%d dramWr=%d exe=%.0fus\n"+
			"IDIO: mlcWB=%d llcWB=%d dramWr=%d exe=%.0fus\n"+
			"Direct-DRAM variant (class-1 payload): RX=%.2f Gbps, DRAM write=%.2f Gbps\n",
			o.FrameLen, d.MLCWB, d.LLCWB, d.DRAMWrites, d.ExeTimeUS,
			i.MLCWB, i.LLCWB, i.DRAMWrites, i.ExeTimeUS,
			res.DirectDRAM.RxGbps, res.DirectDRAM.DRAMWriteGbps)
		return []SeriesFile{
			{"fig11_ddio.csv", []Series{res.DDIO.MLCWB, res.DDIO.LLCWB}},
			{"fig11_idio.csv", []Series{res.IDIO.MLCWB, res.IDIO.LLCWB}},
		}, err
	}),

	entry("fig12", func(env Env) Fig12Opts {
		o := DefaultFig12Opts()
		env.scaleRing(&o.Parallelism, &o.RingSize)
		return o
	}, func(w io.Writer, o Fig12Opts) ([]SeriesFile, error) {
		return nil, WriteTable(w, "Fig 12: p50/p99 latency normalized to DDIO solo",
			Fig12Header(), Rows(Fig12(o)))
	}),

	entry("fig13", func(env Env) Fig13Opts {
		o := DefaultFig13Opts()
		env.scale(&o.Parallelism, &o.Geometry)
		if env.Quick {
			o.Packets = 2048
		}
		return o
	}, func(w io.Writer, o Fig13Opts) ([]SeriesFile, error) {
		res := Fig13(o)
		d, i := res.DDIO.Summary, res.IDIO.Summary
		_, err := fmt.Fprintf(w, "== Fig 13: steady traffic (10 Gbps per TouchDrop) ==\n"+
			"DDIO: mlcWB=%d llcWB=%d drops=%d p99=%.1fus\n"+
			"IDIO: mlcWB=%d llcWB=%d drops=%d p99=%.1fus\n",
			d.MLCWB, d.LLCWB, d.Drops, d.P99US, i.MLCWB, i.LLCWB, i.Drops, i.P99US)
		return []SeriesFile{
			{"fig13_ddio.csv", []Series{res.DDIO.MLCWB, res.DDIO.LLCWB}},
			{"fig13_idio.csv", []Series{res.IDIO.MLCWB, res.IDIO.LLCWB}},
		}, err
	}),

	entry("fig14", func(env Env) Fig14Opts {
		o := DefaultFig14Opts()
		env.scale(&o.Parallelism, &o.Geometry)
		return o
	}, func(w io.Writer, o Fig14Opts) ([]SeriesFile, error) {
		return nil, WriteTable(w, "Fig 14: IDIO sensitivity to mlcTHR at 100 Gbps (normalized to DDIO)",
			Fig14Header(), Rows(Fig14(o)))
	}),

	entry("breakdown", func(env Env) BreakdownOpts {
		o := DefaultBreakdownOpts()
		env.scale(&o.Parallelism, &o.Geometry)
		return o
	}, func(w io.Writer, o BreakdownOpts) ([]SeriesFile, error) {
		return nil, WriteTable(w, "Latency breakdown (us): notification / queueing / service",
			BreakdownHeader(), Rows(Breakdown(o)))
	}),

	entry("ablations", func(env Env) AblationOpts {
		o := DefaultAblationOpts()
		env.scale(&o.Parallelism, &o.Geometry)
		return o
	}, func(w io.Writer, o AblationOpts) ([]SeriesFile, error) {
		// hot is the 100 Gbps burst: the rate where DMA leaks are most
		// severe, and the one the baselines compare at.
		hot := o
		hot.RateGbps = 100
		var rows []AblationRow
		rows = append(rows, AblationDDIOWays(o, []int{1, 2, 4})...)
		rows = append(rows, AblationRingSize(o, []int{64, 256, o.RingSize})...)
		rows = append(rows, AblationPrefetchDepth(o, []int{4, 32, 128})...)
		rows = append(rows, AblationDescCoalescing(o,
			[]sim.Duration{0, 1900 * sim.Nanosecond, 20 * sim.Microsecond})...)
		rows = append(rows, AblationAdaptivePrefetch(hot)...)
		rows = append(rows, AblationMLP(hot, []int{1, 4, 8, 32})...)
		rows = append(rows, AblationReplacement(o)...)
		rows = append(rows, AblationInclusion(o)...)
		rows = append(rows, AblationFrameSize(o, []int{128, 512, 1514})...)
		if err := WriteTable(w, "Ablations: design-choice sweeps (Fig. 9 scenario)",
			AblationHeader(), Rows(rows)); err != nil {
			return nil, err
		}
		return nil, WriteTable(w, "Baselines: static DDIO vs IAT-style dynamic ways vs IDIO (100 Gbps burst)",
			BaselineHeader(), Rows(Baselines(hot)))
	}),

	entry("degradation", func(env Env) DegradationOpts {
		o := DefaultDegradationOpts()
		env.scale(&o.Parallelism, &o.Geometry)
		return o
	}, func(w io.Writer, o DegradationOpts) ([]SeriesFile, error) {
		return nil, WriteTable(w, "Degradation: DDIO vs IDIO under swept fault rates (drops / p99 / WB inflation)",
			DegradationHeader(), Rows(Degradation(o)))
	}),

	entry("rpc", func(env Env) RPCOpts {
		o := DefaultRPCOpts()
		env.scale(&o.Parallelism, &o.Geometry)
		if env.Quick {
			o.Requests = 512
			o.LoadsGbps = []float64{5, 15, 25}
			o.Windows = []int{1, 16}
		}
		if env.Base != nil {
			o.base, o.RingSize = env.Base, 0
		}
		return o
	}, func(w io.Writer, o RPCOpts) ([]SeriesFile, error) {
		if o.base != nil && len(o.base.RPC) == 0 {
			return nil, errors.New("-exp rpc needs a scenario with a topology rpc section")
		}
		return nil, WriteTable(w, "RPC: end-to-end latency vs offered load over the fabric (DDIO vs IDIO)",
			RPCHeader(), Rows(RPC(o)))
	}),

	entry("chaos", func(env Env) ChaosOpts {
		o := DefaultChaosOpts()
		env.scale(&o.Parallelism, &o.Geometry)
		if env.Quick {
			o.Requests = 10000
			o.Horizon = 25 * sim.Millisecond
		}
		return o
	}, func(w io.Writer, o ChaosOpts) ([]SeriesFile, error) {
		return nil, WriteTable(w, "Chaos: scripted fault timeline, per-phase behaviour and time-to-recover (DDIO vs IDIO)",
			ChaosHeader(), Rows(Chaos(o)))
	}),

	entry("qos", func(env Env) QoSOpts {
		o := DefaultQoSOpts()
		env.scale(&o.Parallelism, &o.Geometry)
		if env.Quick {
			o.EFRequests = 32
			o.Horizon = 4 * sim.Millisecond
		}
		return o
	}, func(w io.Writer, o QoSOpts) ([]SeriesFile, error) {
		return nil, WriteTable(w, "QoS: per-class SLOs under a saturating bulk+scavenger mix (DDIO vs IDIO vs QoS-aware IDIO)",
			QoSHeader(), Rows(QoS(o)))
	}),

	entry("churn", func(env Env) ChurnOpts {
		o := DefaultChurnOpts()
		env.scale(&o.Parallelism, &o.Geometry)
		if env.Quick {
			o.Flows = []int{1_000, 65_536}
			o.Horizon = 4 * sim.Millisecond
		}
		return o
	}, func(w io.Writer, o ChurnOpts) ([]SeriesFile, error) {
		return nil, WriteTable(w, "Churn: constant offered load over growing concurrent-flow populations (DDIO vs IDIO)",
			ChurnHeader(), Rows(Churn(o)))
	}),
}
