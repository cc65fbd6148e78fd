package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		prog []def
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.prog))
		}
		for i, m := range c.file {
			if p := c.prog[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("metric %d: BENCHMARK.json has %v, the program %v", i, m, p)
			}
		}
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that every metric is printed by name with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(options{workload: w.name, seed: 3, seconds: 1, trace: trace, scale: 0.01}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			list := endToEnd
			if trace {
				list = perLayer
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(list))
			}
			printed := map[string]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) >= 3 {
					printed[f[0]] = f[2]
				}
			}
			var selfSum float64
			for _, d := range list {
				r, ok := res.Metrics[d.name]
				if !ok || r.Unit != d.unit {
					t.Errorf("%s trace=%v: %s reported as %+v, want unit %s", w.name, trace, d.name, r, d.unit)
				}
				if printed[d.name] != d.unit {
					t.Errorf("%s trace=%v: %s printed with unit %q, want %q", w.name, trace, d.name, printed[d.name], d.unit)
				}
				if strings.HasSuffix(d.name, ".host_self_frac") {
					selfSum += r.Value
				}
			}
			if trace && math.Abs(selfSum-1) > 1e-9 {
				t.Errorf("%s: host_self_frac values sum to %v, want 1", w.name, selfSum)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", scale: 1}, &bytes.Buffer{}); err == nil {
		t.Fatal("an unknown workload was accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKey":             "runtime",
		"idio/internal/sim.(*Simulator).RunUntil":             "sim",
		"idio/internal/dram.(*DRAM).Write":                    "hier",
		"idio/internal/apps.TouchDrop.OnPacket":               "cpu",
		"idio/internal/flow.(*Table[go.shape.struct {}]).Get": "flow",
		"idio.(*rootComplex).DMAWrite":                        "pcie",
		"idio.prefetchAdapter.PrefetchToMLC":                  "core",
		"idio.(*Cluster).Idle":                                "other",
		"math/rand.(*Rand).Int63":                             "other",
		"":                                                    "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
