package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"idio/internal/experiment"
)

// The golden corpus pins what the simulator prints: the stdout, the
// -stats dump and the -json metrics document of every scenarios/*.json
// run, the -quick output of every experiment.Catalogue entry (checked
// once per entry serially and once through `-exp all -j 2`), the
// full-scale output of every entry (through `-exp all -j 2`), a sha256
// of every CSV side file at both scales, the `-exp verify` claims, and
// the stdout of every examples/* program. A change that moves any of them
// on purpose regenerates the corpus with
//
//	go test ./cmd/idiosim -run TestGolden -update
//
// and explains the diff; any other change must leave it untouched.

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")

const goldenDir = "../../testdata/golden"

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
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
	for _, e := range experiment.Catalogue {
		t.Run(e.Name, func(t *testing.T) {
			checkQuick(t, runGolden(t, e.Name, 1)...)
		})
	}
	// -exp rpc -quick -scenario f: the file's ring and operating point
	// shape the sweep, the -quick caches stay.
	t.Run("rpc-scenario", func(t *testing.T) {
		outs, err := runExperiments("rpc", "../../scenarios/rpc_closed_loop.json",
			experiment.Env{Quick: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if outs[0].Err != nil {
			t.Fatal(outs[0].Err)
		}
		checkGolden(t, "rpc_scenario_quick.txt", outs[0].Text.Bytes())
	})
	// -exp all -j 2 at both scales: every entry's text (<name>.txt at
	// full scale), and one digest per CSV side file in csv.sha256.
	t.Run("all-j2", func(t *testing.T) {
		var sums bytes.Buffer
		for _, quick := range []bool{true, false} {
			outs, err := runExperiments("all", "", experiment.Env{Quick: quick, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			scale, suffix := "full", ".txt"
			if quick {
				scale, suffix = "quick", "_quick.txt"
			}
			for _, o := range outs {
				if o.Err != nil {
					t.Fatalf("%s: %v", o.Name, o.Err)
				}
				checkGolden(t, o.Name+suffix, o.Text.Bytes())
				for _, f := range o.Files {
					var csv bytes.Buffer
					if err := experiment.WriteSeriesCSV(&csv, f.Series...); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&sums, "%x  %s/%s\n", sha256.Sum256(csv.Bytes()), scale, f.Name)
				}
			}
		}
		checkGolden(t, "csv.sha256", sums.Bytes())
	})
	// -exp verify: the claims at their own reduced-scale parameters.
	t.Run("verify", func(t *testing.T) {
		var out bytes.Buffer
		experiment.Verify(&out)
		checkGolden(t, "verify.txt", out.Bytes())
	})
	checkExamples(t)
}

// runGolden runs -exp name -quick -j par through main's path.
func runGolden(t *testing.T, name string, par int) []*experiment.Output {
	t.Helper()
	outs, err := runExperiments(name, "", experiment.Env{Quick: true, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// checkQuick compares each output with its <name>_quick.txt golden.
func checkQuick(t *testing.T, outs ...*experiment.Output) {
	t.Helper()
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Name, o.Err)
		}
		checkGolden(t, o.Name+"_quick.txt", o.Text.Bytes())
	}
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
