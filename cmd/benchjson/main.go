// Command benchjson converts `go test -bench` output into a JSON
// document keyed by benchmark name. Repeated runs of the same
// benchmark (-count N) are averaged, the -GOMAXPROCS suffix is
// stripped, and every reported metric — ns/op, B/op, allocs/op and
// custom b.ReportMetric units — becomes a field:
//
//	go test -bench . -benchmem -count 3 ./internal/sim | benchjson -o BENCH_sim.json
//
// Output shape:
//
//	{"BenchmarkSchedule": {"iterations": 12345678, "ns/op": 93.1,
//	                       "B/op": 0, "allocs/op": 0}, ...}
//
// Lines that are not benchmark results (pkg headers, PASS/ok, test
// logs) are ignored, so the raw `go test` stream can be piped in
// unfiltered.
//
// Two side modes support the perf-regression workflow:
//
//	-baseline old.json   compare against a committed baseline and print
//	                     a WARNING for every benchmark whose headline
//	                     metric (ns/pkt, else ns/req, else ns/op)
//	                     regressed by more than 10%
//	-history hist.jsonl  append this run's condensed results as one
//	                     JSON line (with -label and a UTC timestamp),
//	                     building a per-PR performance ledger
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline JSON: warn on >10% ns/pkt (else ns/req, else ns/op) regressions")
	history := flag.String("history", "", "JSONL ledger to append this run's results to")
	label := flag.String("label", "", "label stored with the -history entry (e.g. git commit)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	results, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "[%d benchmarks written to %s]\n", len(results), *out)
	}
	if *baseline != "" {
		if err := compare(os.Stderr, results, *baseline); err != nil {
			fatal(err)
		}
	}
	if *history != "" {
		if err := appendHistory(*history, *label, results); err != nil {
			fatal(err)
		}
	}
}

// compare warns on w (exit 0) about benchmarks whose headline latency
// metric regressed >10% against the baseline file. The headline is
// the first of ns/pkt, ns/req and ns/op that both runs report: a
// per-packet or per-request figure stays comparable when one b.N
// iteration does a variable amount of work, where ns/op does not. The
// comparison is advisory by design: wall-clock benchmarks on shared
// machines are too noisy for a hard gate, but a loud warning in the
// pre-merge check output is hard to miss.
func compare(w io.Writer, results map[string]map[string]float64, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base map[string]map[string]float64
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	warned := 0
	for _, name := range names {
		old, ok := base[name]
		if !ok {
			continue
		}
		metric := "ns/op"
		for _, m := range []string{"ns/pkt", "ns/req"} {
			_, a := old[m]
			_, b := results[name][m]
			if a && b {
				metric = m
				break
			}
		}
		ov, nv := old[metric], results[name][metric]
		if ov <= 0 || nv <= ov*1.10 {
			continue
		}
		fmt.Fprintf(w, "benchjson: WARNING: %s %s regressed %+.1f%% vs %s (%.4g -> %.4g)\n",
			name, metric, 100*(nv/ov-1), path, ov, nv)
		warned++
	}
	if warned == 0 {
		fmt.Fprintf(w, "benchjson: no >10%% regressions vs %s\n", path)
	}
	return nil
}

// appendHistory appends one compact JSON line {label, utc, results} to
// the ledger so successive PRs accumulate a queryable perf timeline.
func appendHistory(path, label string, results map[string]map[string]float64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	entry := struct {
		Label   string                        `json:"label"`
		UTC     string                        `json:"utc"`
		Results map[string]map[string]float64 `json:"results"`
	}{label, time.Now().UTC().Format(time.RFC3339), results}
	enc := json.NewEncoder(f)
	return enc.Encode(entry)
}

// parse accumulates per-benchmark metric sums and averages them, so a
// -count N stream collapses to one entry per benchmark.
func parse(r io.Reader) (map[string]map[string]float64, error) {
	sums := map[string]map[string]float64{}
	counts := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// A result line is "BenchmarkName-N  iters  value unit  value unit ...".
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := sums[name]
		if m == nil {
			m = map[string]float64{}
			sums[name] = m
		}
		m["iterations"] += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value on line %q", sc.Text())
			}
			m[fields[i+1]] += v
		}
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := float64(counts[name])
		for k := range sums[name] {
			sums[name][k] /= n
		}
	}
	return sums, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
