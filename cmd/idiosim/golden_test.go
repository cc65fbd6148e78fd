package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden corpus pins what the simulator prints: the stdout, the
// -stats dump and the -json metrics document of every scenarios/*.json
// run, the fig4, fig5, fig9-fig14, breakdown, ablations,
// degradation, churn, rpc, qos and chaos -quick tables, and the stdout
// of every examples/* program. A change that moves any of them on purpose regenerates the corpus with
//
//	go test ./cmd/idiosim -run TestGolden -update
//
// and explains the diff; any other change must leave it untouched.

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")

const goldenDir = "../../testdata/golden"

// goldenFigs are the experiment tables the corpus pins, run with -quick.
var goldenFigs = []string{"fig4", "fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "breakdown", "ablations", "degradation", "churn", "rpc", "qos", "chaos"}

// timingLine matches the "[fig9 done in 175ms]" wall-clock footer, the
// one line of output that differs from run to run.
var timingLine = regexp.MustCompile(`(?m)^\[[^\]]* done in [^\]]*\]\n`)

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	got = timingLine.ReplaceAll(got, nil)
	path := filepath.Join(goldenDir, name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want = timingLine.ReplaceAll(want, nil)
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs from the golden corpus at line %d:\n got: %q\nwant: %q", name, i+1, gl, wl)
		}
	}
}

func TestGolden(t *testing.T) {
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	scenarios, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("no scenarios found (%v)", err)
	}
	for _, path := range scenarios {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run("scenario/"+name, func(t *testing.T) {
			var out bytes.Buffer
			dir := t.TempDir()
			stats, js := filepath.Join(dir, "stats"), filepath.Join(dir, "json")
			if err := runScenario(path, scenarioOpts{statsPath: stats, jsonPath: js}, &out); err != nil {
				t.Fatal(err)
			}
			dump, err := os.ReadFile(stats)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := os.ReadFile(js)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "scenario_"+name+".out", out.Bytes())
			checkGolden(t, "scenario_"+name+".stats", dump)
			checkGolden(t, "scenario_"+name+".json", doc)
		})
	}
	for _, fig := range goldenFigs {
		t.Run(fig, func(t *testing.T) {
			var out bytes.Buffer
			r := &runner{quick: true, par: 1}
			if err := r.run(fig, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fig+"_quick.txt", out.Bytes())
		})
	}
	checkExamples(t)
}

// checkExamples builds every examples/* program in one go build and
// pins each one's stdout as example_<name>.txt.
func checkExamples(t *testing.T) {
	mains, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the examples: %v\n%s", err, out)
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run("example/"+name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("running example %s: %v", name, err)
			}
			checkGolden(t, "example_"+name+".txt", out)
		})
	}
}
