package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseAveragesAndStripsSuffix(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: idio/internal/sim
BenchmarkSchedule-8   	12000000	        90.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedule-8   	12000000	       110.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig9         	       2	 500000000 ns/op	        12.5 mlcWBreduction%@100G
PASS
ok  	idio/internal/sim	1.234s
`
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	sched, ok := got["BenchmarkSchedule"]
	if !ok {
		t.Fatalf("missing BenchmarkSchedule (suffix not stripped?): %v", got)
	}
	if math.Abs(sched["ns/op"]-100.0) > 1e-9 {
		t.Fatalf("ns/op not averaged: got %v, want 100", sched["ns/op"])
	}
	if sched["allocs/op"] != 0 {
		t.Fatalf("allocs/op = %v, want 0", sched["allocs/op"])
	}
	fig9 := got["BenchmarkFig9"]
	if fig9 == nil || fig9["mlcWBreduction%@100G"] != 12.5 {
		t.Fatalf("custom metric not captured: %v", fig9)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	got, err := parse(strings.NewReader("hello\nBenchmarkOdd 3 fields\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected no results, got %v", got)
	}
}

// TestCompareHeadlineMetric: a MillionFlow-shaped benchmark runs a
// variable number of requests per b.N iteration, so its ns/op at
// -benchtime=3x is far from the baseline's while ns/req is comparable.
// compare must judge it on ns/req: equal ns/req stays quiet, +20%
// ns/req warns.
func TestCompareHeadlineMetric(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(base, []byte(`{"BenchmarkMillionFlowSteadyState": {"ns/op": 17452, "ns/req": 17428}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		nsReq float64
		warn  bool
	}{{17428, false}, {17428 * 1.2, true}} {
		run := map[string]map[string]float64{
			"BenchmarkMillionFlowSteadyState": {"ns/op": 17452 * 48, "ns/req": tc.nsReq},
		}
		var out strings.Builder
		if err := compare(&out, run, base); err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(out.String(), "WARNING"); got != tc.warn {
			t.Fatalf("ns/req %.0f: warned=%v, want %v:\n%s", tc.nsReq, got, tc.warn, out.String())
		}
		if tc.warn && !strings.Contains(out.String(), "ns/req") {
			t.Fatalf("warning should name ns/req:\n%s", out.String())
		}
	}
}
