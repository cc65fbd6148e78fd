// Command simbench is the idio simulator's benchmark. It runs one named
// workload for a fixed wall-clock budget as a series of episodes, each
// building a fresh simulation from the seed, running it, and checking
// its outputs. It prints every metric by name and unit, then, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with --trace 1 they are the per-layer ones, from traced
// episodes run after untraced ones in the same process. A failed check
// makes the command exit with status 1.
//
//	bash simbench/run.sh --workload burst_idio --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
}

// reading is one metric in the JSON result.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

func main() {
	o := options{scale: 1}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: burst_idio, rpc_fanin, rpc_fanin_sharded or churn_1m")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "wall-clock seconds to spend running episodes")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from traced episodes, 0 end-to-end metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "simbench: --trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// minEpisodes is the fewest episodes of each kind a run makes, so the
// same-seed determinism check always has two to compare.
const minEpisodes = 2

// run measures one workload and prints a readable report to out. The
// returned result carries the metrics the JSON line reports.
func run(o options, out io.Writer) (result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return result{}, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	// Two threads at most, whatever the host: only the sharded workload
	// runs simulation goroutines in parallel, and it needs two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	sp := spec{seed: o.seed, scale: o.scale}
	budget := time.Duration(o.seconds * float64(time.Second))
	plainBudget := budget
	if o.trace {
		plainBudget = budget / 2
	}
	start := time.Now()
	var errs []error
	var plain, traced []sample
	for len(plain) < minEpisodes || time.Since(start) < plainBudget {
		s, err := episode(w, sp, nil, nil)
		if err != nil {
			return result{}, err
		}
		plain = append(plain, s)
	}
	pr := &probe{}
	prof := map[string]int64{}
	for o.trace && (len(traced) < minEpisodes || time.Since(start) < budget) {
		s, err := episode(w, sp, pr, prof)
		if err != nil {
			return result{}, err
		}
		traced = append(traced, s)
	}

	ref := plain[0].out
	errs = append(errs, ref.errs...)
	for i, s := range append(plain[1:], traced...) {
		if err := sameOutcome(ref, s.out); err != nil {
			errs = append(errs, fmt.Errorf("episode %d of the same seed differs: %w", i+2, err))
		}
	}
	if w.twin != "" {
		t, _ := findWorkload(w.twin)
		s, err := episode(t, sp, nil, nil)
		if err != nil {
			return result{}, err
		}
		if s.out.stats != ref.stats {
			errs = append(errs, fmt.Errorf("stats dump differs from %s's for the same seed", t.name))
		}
	}

	res := result{Correct: len(errs) == 0, Metrics: map[string]reading{}}
	for _, s := range append(plain, traced...) {
		res.Attempted += s.out.attempted
		res.Failed += s.out.failed
	}
	e2e := endToEndValues(plain)
	fmt.Fprintf(out, "simbench %s seed=%d: %d untraced and %d traced episodes in %.1fs\n",
		w.name, o.seed, len(plain), len(traced), time.Since(start).Seconds())
	fmt.Fprintf(out, "one op = %s; %d ops per episode\n", opName(w.name), ref.ops)
	fmt.Fprintln(out, "end to end (untraced):")
	report(out, endToEnd, e2e, ref)
	walls := sorted(plain, wallPerOp)
	fmt.Fprintf(out, "  %-34s %16.6f %s  (per layer; episodes from %.0f to %.0f)\n",
		"wall_ns_per_op", e2e["wall_ns_per_op"], "ns", walls[0], walls[len(walls)-1])
	shown, list := e2e, endToEnd
	if o.trace {
		shown, list = layerValues(plain, traced, pr, prof), perLayer
		fmt.Fprintln(out, "per layer (traced):")
		report(out, perLayer, shown, ref)
		fmt.Fprintf(out, "spans: %d RunUntil slices of %.0f ns, %d NF calls of %.0f ns, %d NIC receives of %.0f ns\n",
			pr.sliceSpan.n, pr.sliceSpan.perCall(), pr.appSpan.n, pr.appSpan.perCall(), pr.rxSpan.n, pr.rxSpan.perCall())
	}
	for _, d := range list {
		res.Metrics[d.name] = reading{Value: shown[d.name], Unit: d.unit}
	}
	for _, err := range errs {
		fmt.Fprintln(out, "check failed:", err)
	}
	if len(errs) == 0 {
		fmt.Fprintln(out, "checks: all passed")
	}
	return res, nil
}

func opName(workload string) string {
	if workload == "burst_idio" {
		return "one packet received by the DUT NIC"
	}
	return "one answered request"
}

// report prints each metric of list as name, value and unit.
func report(out io.Writer, list []def, v values, ref outcome) {
	for _, d := range list {
		note := ""
		if d.name == "sim_p50_us" || d.name == "sim_p99_us" {
			note = fmt.Sprintf("  (%.0f samples)", ref.sim["sim.latency_samples"])
		}
		fmt.Fprintf(out, "  %-34s %16.6f %s%s\n", d.name, v[d.name], d.unit, note)
	}
}

// sameOutcome reports how two runs of the same seed differ in what
// they simulated.
func sameOutcome(a, b outcome) error {
	if a.stats != b.stats {
		return fmt.Errorf("stats dumps differ")
	}
	for k, v := range a.sim {
		if b.sim[k] != v {
			return fmt.Errorf("%s: %v vs %v", k, v, b.sim[k])
		}
	}
	return nil
}

// sample is one episode's host-side measurement and simulated outcome.
type sample struct {
	setup    time.Duration
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	liveHeap uint64
	out      outcome
}

func (s sample) perOp(x float64) float64 { return ratio(x, float64(s.out.ops)) }

// episode builds one simulation and runs it. Set-up is everything up
// to the first measured slice, timed in CPU time. When prof is non-nil, a CPU profile of
// the measured run is bucketed into it by layer.
func episode(w workload, sp spec, pr *probe, prof map[string]int64) (sample, error) {
	// Collect the previous episode's garbage now, so it is not charged
	// to this one.
	runtime.GC()
	c0 := cpuTime()
	inst := w.build(sp, pr)
	setup := cpuTime() - c0

	var m0, m1, m2 runtime.MemStats
	var profile bytes.Buffer
	runtime.ReadMemStats(&m0)
	if prof != nil {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return sample{}, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	c1, t1 := cpuTime(), time.Now()
	inst.run(pr)
	wall, cpu := time.Since(t1), cpuTime()-c1
	runtime.ReadMemStats(&m1)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := leafSamples(profile.Bytes(), prof); err != nil {
			return sample{}, err
		}
	}
	out := inst.collect()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(inst)
	return sample{
		setup:    setup,
		wall:     wall,
		cpu:      cpu,
		mallocs:  m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		liveHeap: m2.HeapAlloc,
		out:      out,
	}, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sorted returns the values f takes over the samples, in order.
func sorted(ss []sample, f func(sample) float64) []float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	sort.Float64s(v)
	return v
}

// median of the values f takes over the samples.
func median(ss []sample, f func(sample) float64) float64 {
	v := sorted(ss, f)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

func wallPerOp(s sample) float64 { return s.perOp(float64(s.wall)) }

// endToEndValues takes the median host cost over untraced episodes; the
// simulated metrics are identical in every episode.
func endToEndValues(plain []sample) values {
	v := values{
		"setup_s":            median(plain, func(s sample) float64 { return s.setup.Seconds() }),
		"wall_ns_per_op":     median(plain, wallPerOp),
		"cpu_ns_per_op":      median(plain, func(s sample) float64 { return s.perOp(float64(s.cpu)) }),
		"allocs_per_op":      median(plain, func(s sample) float64 { return s.perOp(float64(s.mallocs)) }),
		"alloc_bytes_per_op": median(plain, func(s sample) float64 { return s.perOp(float64(s.bytes)) }),
		"live_heap_mib":      median(plain, func(s sample) float64 { return float64(s.liveHeap) / (1 << 20) }),
	}
	for _, d := range endToEnd {
		if x, ok := plain[0].out.sim[d.name]; ok {
			v[d.name] = x
		}
	}
	return v
}

// layerValues combines the exact per-layer counts with host time from
// the traced episodes: seam spans, and the CPU profile's leaf samples
// bucketed by layer.
func layerValues(plain, traced []sample, pr *probe, prof map[string]int64) values {
	v := values{"wall_ns_per_op": median(plain, wallPerOp)}
	for _, d := range perLayer {
		if x, ok := traced[0].out.sim[d.name]; ok {
			v[d.name] = x
		}
	}
	v["sim.host_ns_per_event"] = median(plain, func(s sample) float64 { return ratio(float64(s.wall), float64(s.out.events)) })
	v["cpu.app_host_ns_per_pkt"] = pr.appSpan.perCall()
	var total int64
	for _, n := range prof {
		total += n
	}
	for _, l := range hostLayers {
		v[l+".host_self_frac"] = ratio(float64(prof[l]), float64(total))
	}
	v["trace.overhead_frac"] = median(traced, wallPerOp)/median(plain, wallPerOp) - 1
	return v
}
