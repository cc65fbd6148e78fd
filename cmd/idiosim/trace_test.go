package main

import (
	"encoding/json"
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

// TestObsArtifactsParse runs a traced scenario with -trace x.json
// -trace-sample 16 -json y.json and checks that both files parse as
// JSON, and that the trace has the Chrome trace-event shape Perfetto
// expects: a non-empty traceEvents array of objects, each with name and
// ph, and with ts unless it is a timeless metadata event (ph "M").
func TestObsArtifactsParse(t *testing.T) {
	dir := t.TempDir()
	o := scenarioOpts{
		tracePath:   filepath.Join(dir, "trace.json"),
		traceSample: 16,
		jsonPath:    filepath.Join(dir, "results.json"),
	}
	if err := runScenario("../../scenarios/mixed_nfs.json", o, io.Discard); err != nil {
		t.Fatal(err)
	}
	readJSON(t, o.jsonPath)
	doc := readJSON(t, o.tracePath)
	events, ok := doc["traceEvents"].([]any)
	if !ok || len(events) == 0 {
		t.Fatalf("traceEvents is missing, not an array, or empty: %T", doc["traceEvents"])
	}
	for i, raw := range events {
		ev, ok := raw.(map[string]any)
		if !ok {
			t.Fatalf("traceEvents[%d] is not an object: %v", i, raw)
		}
		keys := []string{"name", "ph"}
		if ev["ph"] != "M" {
			keys = append(keys, "ts")
		}
		for _, key := range keys {
			if _, ok := ev[key]; !ok {
				t.Fatalf("traceEvents[%d] missing %q: %v", i, key, ev)
			}
		}
	}
}

// readJSON parses the file at path as one JSON object.
func readJSON(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s is not valid JSON: %v", filepath.Base(path), err)
	}
	return doc
}
