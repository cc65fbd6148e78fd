package idio_test

// End-to-end checks of the observability layer against a real
// scenario: the Chrome trace must be Perfetto-loadable, every line of
// the flat stats file must be a metric of the JSON document, and — the load-bearing
// invariant — tracing must be purely observational: a traced run's
// stats are byte-identical to an untraced run's.

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"idio/internal/obs"
	"idio/internal/scenario"
	"idio/internal/sim"
)

// loadMixedNFS parses the repo's showcase scenario.
func loadMixedNFS(t *testing.T) scenario.Scenario {
	t.Helper()
	f, err := os.Open("scenarios/mixed_nfs.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := scenario.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestObservabilityEndToEnd(t *testing.T) {
	sc := loadMixedNFS(t)

	// Untraced reference run.
	_, plain, _, err := scenario.RunSystem(sc)
	if err != nil {
		t.Fatal(err)
	}
	var plainStats bytes.Buffer
	if err := plain.WriteStats(&plainStats); err != nil {
		t.Fatal(err)
	}

	// Fully observed run: every-4th-packet Chrome trace plus periodic
	// metric snapshots.
	var traceBuf bytes.Buffer
	sys, traced, _, err := scenario.RunSystemOpts(sc, scenario.RunOpts{
		TraceSampleN:    4,
		TraceSink:       obs.NewChromeSink(&traceBuf),
		MetricsInterval: 100 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Observe().CloseSink(); err != nil {
		t.Fatal(err)
	}
	if n := sys.Observe().EventsEmitted(); n == 0 {
		t.Fatal("traced run emitted no events")
	}

	t.Run("TracedRunByteIdentical", func(t *testing.T) {
		var tracedStats bytes.Buffer
		if err := traced.WriteStats(&tracedStats); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plainStats.Bytes(), tracedStats.Bytes()) {
			t.Errorf("tracing perturbed the simulation:\n--- untraced ---\n%s\n--- traced ---\n%s",
				plainStats.String(), tracedStats.String())
		}
	})

	t.Run("ChromeTraceIsPerfettoValid", func(t *testing.T) {
		var doc struct {
			DisplayTimeUnit string                   `json:"displayTimeUnit"`
			TraceEvents     []map[string]interface{} `json:"traceEvents"`
		}
		if err := json.Unmarshal(traceBuf.Bytes(), &doc); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		if doc.DisplayTimeUnit != "ns" {
			t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatal("no trace events")
		}
		phases := map[string]int{}
		names := map[string]int{}
		for i, ev := range doc.TraceEvents {
			ph, _ := ev["ph"].(string)
			name, _ := ev["name"].(string)
			if ph == "" || name == "" {
				t.Fatalf("event %d missing ph or name: %v", i, ev)
			}
			phases[ph]++
			names[name]++
			if ph == "M" {
				continue
			}
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				t.Fatalf("event %d has bad ts: %v", i, ev)
			}
			if ph == "X" {
				if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
					t.Fatalf("complete event %d has bad dur: %v", i, ev)
				}
			}
		}
		// The journey stages the scenario must exercise: RX + DMA on the
		// NIC track, placement on the memory track, the three service
		// spans on the core track, buffer free, and metadata naming the
		// synthetic processes.
		for _, want := range []string{"rx", "dma", "place", "notify", "queue", "service", "free", "process_name"} {
			if names[want] == 0 {
				t.Errorf("no %q events in trace", want)
			}
		}
		if phases["X"] == 0 || phases["i"] == 0 || phases["M"] == 0 {
			t.Errorf("missing phases: got %v", phases)
		}
	})

	t.Run("WriteJSONMirrorsWriteStats", func(t *testing.T) {
		var jsonBuf bytes.Buffer
		if err := traced.WriteJSON(&jsonBuf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Schema  int `json:"schema"`
			Metrics []struct {
				Name  string  `json:"name"`
				Kind  string  `json:"kind"`
				Value float64 `json:"value"`
			} `json:"metrics"`
			Series *struct {
				Names  []string    `json:"names"`
				TimeUS []float64   `json:"time_us"`
				Rows   [][]float64 `json:"rows"`
			} `json:"series"`
		}
		if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
			t.Fatalf("WriteJSON output is not valid JSON: %v", err)
		}
		if doc.Schema != 1 {
			t.Errorf("schema = %d, want 1", doc.Schema)
		}
		byName := map[string]float64{}
		for _, m := range doc.Metrics {
			byName[m.Name] = m.Value
		}
		// The flat stats file is a view of the same registry: every
		// dump line must be a JSON metric with the same value.
		checked := 0
		for _, line := range strings.Split(strings.TrimSuffix(plainStats.String(), "\n"), "\n") {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("stats line %q is not \"key value\"", line)
			}
			key := fields[0]
			got, ok := byName[key]
			if !ok {
				t.Errorf("WriteStats key %q missing from WriteJSON metrics", key)
				continue
			}
			want, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("unparseable WriteStats value %q for %q", fields[1], key)
			}
			if got != want {
				t.Errorf("%s: JSON value %g != stats value %g", key, got, want)
			}
			checked++
		}
		if checked < 30 {
			t.Errorf("only cross-checked %d keys; stats format changed?", checked)
		}
		if doc.Series == nil || len(doc.Series.Rows) == 0 {
			t.Fatal("metrics series missing from JSON despite MetricsInterval")
		}
		if len(doc.Series.Names) == 0 || len(doc.Series.Rows[0]) != len(doc.Series.Names) {
			t.Errorf("series shape mismatch: %d names, row width %d",
				len(doc.Series.Names), len(doc.Series.Rows[0]))
		}
	})
}

// TestCSVSinkFromScenario checks the library form of idiosim's
// -trace x.csv: a CSV sink attached through RunOpts yields the
// per-packet layout of obs.CSVHeader.
func TestCSVSinkFromScenario(t *testing.T) {
	sc := loadMixedNFS(t)
	var buf bytes.Buffer
	sys, res, _, err := scenario.RunSystemOpts(sc, scenario.RunOpts{
		TraceSampleN: 64,
		TraceSink:    obs.NewCSVSink(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Observe().CloseSink(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != obs.CSVHeader {
		t.Fatalf("header = %q, want %q", lines[0], obs.CSVHeader)
	}
	if len(lines) < 2 {
		t.Fatal("no data rows")
	}
	want := int(res.TotalProcessed())/64 + 1 // seq%64==0 per flow, 3 flows
	if got := len(lines) - 1; got < want/2 {
		t.Errorf("only %d rows for %d processed packets at 1/64 sampling", got, res.TotalProcessed())
	}
	for i, line := range lines[1:] {
		if cols := strings.Count(line, ","); cols != 9 {
			t.Fatalf("row %d has %d commas, want 9: %q", i, cols, line)
		}
	}
}
