package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idio/internal/obs"
)

// TestScenarioTraceCSV checks that a -trace path ending in .csv selects
// the per-packet CSV sink: the file starts with obs.CSVHeader and every
// row after it has the header's ten columns.
func TestScenarioTraceCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	o := scenarioOpts{tracePath: path, traceSample: 64}
	if err := runScenario("../../scenarios/mixed_nfs.json", o, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != obs.CSVHeader {
		t.Fatalf("first line = %q, want %q", lines[0], obs.CSVHeader)
	}
	if len(lines) < 2 {
		t.Fatal("trace has a header but no packet rows")
	}
	cols := len(strings.Split(obs.CSVHeader, ","))
	if cols != 10 {
		t.Fatalf("obs.CSVHeader has %d columns, want 10", cols)
	}
	for i, row := range lines[1:] {
		if n := len(strings.Split(row, ",")); n != cols {
			t.Fatalf("row %d has %d columns, want %d: %q", i+1, n, cols, row)
		}
	}
}
