package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"idio/internal/mem"
	"idio/internal/sim"
)

func TestRegistryOrderAndLookup(t *testing.T) {
	r := NewRegistry()
	var a, b uint64 = 7, 9
	r.CounterFunc("z.second", func() uint64 { return b })
	r.CounterFunc("a.first", func() uint64 { return a })
	r.GaugeFunc("m.gauge", func() float64 { return 1.5 })

	names := r.Names()
	want := []string{"z.second", "a.first", "m.gauge"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names[%d] = %q, want %q (registration order must win)", i, names[i], n)
		}
	}
	snap := r.Snapshot()
	if snap[0].Uint64() != 9 || snap[1].Uint64() != 7 {
		t.Fatalf("snapshot values = %v", snap)
	}
	if snap[2].Kind != KindGauge || snap[2].Value != 1.5 {
		t.Fatalf("gauge sample = %+v", snap[2])
	}
	a = 100
	if s, ok := r.Lookup("a.first"); !ok || s.Uint64() != 100 {
		t.Fatalf("Lookup after mutation = %+v, %v", s, ok)
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) reported ok")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("dup", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.CounterFunc("dup", func() uint64 { return 0 })
}

func TestSamplingAndSeriesCSV(t *testing.T) {
	o := New(Config{MetricsInterval: 10 * sim.Microsecond})
	var n uint64
	o.Registry().CounterFunc("n", func() uint64 { return n })
	o.Registry().GaugeFunc("g", func() float64 { return float64(n) / 2 })
	o.SampleMetrics(0)
	n = 4
	o.SampleMetrics(sim.Time(10 * sim.Microsecond))

	if o.Metrics().Len() != 2 {
		t.Fatalf("series len = %d", o.Metrics().Len())
	}
	var buf bytes.Buffer
	if err := o.Metrics().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_us,n,g" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0.000,0,0" || lines[2] != "10.000,4,2" {
		t.Fatalf("rows = %q", lines[1:])
	}
}

func TestTracerSamplingAndLineAttribution(t *testing.T) {
	o := New(Config{TraceSampleN: 4})
	sink := &NullSink{}
	o.SetSink(sink)

	if !o.Tracing() {
		t.Fatal("Tracing() = false with TraceSampleN set")
	}
	for seq := uint64(0); seq < 8; seq++ {
		if got, want := o.TracingPacket(seq), seq%4 == 0; got != want {
			t.Fatalf("TracingPacket(%d) = %v, want %v", seq, got, want)
		}
	}

	o.MarkLines(4, mem.Region{Base: 0, Size: 128}) // lines 0 and 1
	o.LineEvent(EvPlace, 0, 0, 2, "LLC", 0)
	o.LineEvent(EvPlace, 0, 99, 2, "LLC", 0) // unmarked line: dropped
	if sink.Events != 1 {
		t.Fatalf("sink saw %d events, want 1 (unattributed line must be dropped)", sink.Events)
	}
	o.Emit(Event{Kind: EvRx, Seq: 4})
	if o.EventsEmitted() != 2 {
		t.Fatalf("EventsEmitted = %d", o.EventsEmitted())
	}
}

func TestNilAndDisabledObserverAreInert(t *testing.T) {
	for name, o := range map[string]*Observer{"nil": nil, "disabled": New(Config{})} {
		if o.Tracing() || o.TracingPacket(0) {
			t.Fatalf("%s observer reports tracing", name)
		}
		// None of these may panic.
		o.Emit(Event{Kind: EvRx})
		o.MarkLines(0, mem.Region{Base: 0, Size: 64})
		o.LineEvent(EvPlace, 0, 0, 0, "LLC", 0)
		o.SetSink(&NullSink{})
		if err := o.CloseSink(); err != nil {
			t.Fatalf("%s CloseSink: %v", name, err)
		}
		if o.EventsEmitted() != 0 {
			t.Fatalf("%s emitted events", name)
		}
		if o.MetricsInterval() != 0 {
			t.Fatalf("%s has a metrics interval", name)
		}
	}
	var o *Observer
	o.SampleMetrics(0)
	if o.Metrics() != nil || o.Registry() != nil {
		t.Fatal("nil observer exposes state")
	}
}

// journey emits a representative packet journey into the sink.
func journey(o *Observer) {
	o.MarkLines(0, mem.Region{Base: 4096, Size: 2048})
	o.Emit(Event{Kind: EvRx, Seq: 0, Core: 1, At: sim.Time(1 * sim.Microsecond), Bytes: 1500})
	o.Emit(Event{Kind: EvDMA, Seq: 0, Core: 1, At: sim.Time(1 * sim.Microsecond), Dur: 300 * sim.Nanosecond, Bytes: 1500})
	o.LineEvent(EvPlace, sim.Time(2*sim.Microsecond), 64, 1, "MLC", 10*sim.Nanosecond)
	o.LineEvent(EvPrefetch, sim.Time(2*sim.Microsecond), 64, 1, "fill", 0)
	o.LineEvent(EvInval, sim.Time(2*sim.Microsecond), 64, 1, "dma", 0)
	o.LineEvent(EvWriteback, sim.Time(3*sim.Microsecond), 64, 1, "", 0)
	o.Emit(Event{Kind: EvDrop, Seq: 0, Core: -1, At: sim.Time(3 * sim.Microsecond), Arg: "ring-full"})
	o.Emit(Event{
		Kind: EvDone, Seq: 0, Core: 1, At: sim.Time(5 * sim.Microsecond),
		Arrival: sim.Time(1 * sim.Microsecond), Ready: sim.Time(2 * sim.Microsecond), Start: sim.Time(3 * sim.Microsecond),
	})
	o.Emit(Event{Kind: EvFree, Seq: 0, Core: 1, At: sim.Time(5 * sim.Microsecond)})
}

func TestChromeSinkProducesValidTraceJSON(t *testing.T) {
	o := New(Config{TraceSampleN: 1})
	var buf bytes.Buffer
	o.SetSink(NewChromeSink(&buf))
	journey(o)
	if err := o.CloseSink(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// MarkLines maps 32 lines but emits nothing; EvPlace on a marked
	// line must appear, and EvDone expands to three spans.
	phases := map[string]int{}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		phases[ph]++
		names[name]++
		if _, ok := ev["ts"].(float64); !ok && ph != "M" {
			t.Fatalf("event missing numeric ts: %v", ev)
		}
		if ph == "X" {
			if d, ok := ev["dur"].(float64); !ok || d < 0 {
				t.Fatalf("complete event with bad dur: %v", ev)
			}
		}
	}
	for _, want := range []string{"rx", "dma", "place", "prefetch", "inval", "writeback", "drop", "notify", "queue", "service", "free"} {
		if names[want] == 0 {
			t.Fatalf("trace missing %q events; got %v", want, names)
		}
	}
	if phases["M"] == 0 {
		t.Fatal("trace missing thread/process metadata")
	}
	if names["service"] != 1 || phases["X"] != 4 {
		t.Fatalf("span counts off: names=%v phases=%v", names, phases)
	}
}

func TestCSVSinkMatchesIdiotraceLayout(t *testing.T) {
	o := New(Config{TraceSampleN: 1})
	var buf bytes.Buffer
	o.SetSink(NewCSVSink(&buf))
	journey(o)
	if err := o.CloseSink(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != CSVHeader {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 2 {
		t.Fatalf("CSV sink must keep only EvDone rows, got %d rows", len(lines)-1)
	}
	if lines[1] != "1,0,1.000,2.000,3.000,5.000,1.000,1.000,2.000,4.000" {
		t.Fatalf("row = %q", lines[1])
	}
}

// TestDisabledObserverZeroAllocs is the acceptance-criteria guard: with
// observability off (nil or disabled observer), every hot-path entry
// point must cost zero allocations.
func TestDisabledObserverZeroAllocs(t *testing.T) {
	for name, o := range map[string]*Observer{"nil": nil, "disabled": New(Config{})} {
		allocs := testing.AllocsPerRun(1000, func() {
			if o.Tracing() {
				t.Fatal("tracing unexpectedly on")
			}
			if o.TracingPacket(42) {
				t.Fatal("sampling unexpectedly on")
			}
			o.Emit(Event{Kind: EvRx, Seq: 42})
			o.LineEvent(EvPlace, 0, 42, 0, "LLC", 0)
			o.MarkLines(42, mem.Region{Base: 0, Size: 64})
		})
		if allocs != 0 {
			t.Fatalf("%s observer: %v allocs/op on disabled hot path, want 0", name, allocs)
		}
	}
}
