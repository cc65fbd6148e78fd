package obs

import (
	"fmt"
	"io"

	"idio/internal/sim"
)

// MetricKind tells a consumer how to interpret a sample's value.
type MetricKind uint8

const (
	// KindCounter is a monotonically increasing integer count.
	KindCounter MetricKind = iota
	// KindGauge is an instantaneous float measurement.
	KindGauge
)

func (k MetricKind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

type metric struct {
	name  string
	kind  MetricKind
	readU func() uint64
	readF func() float64
}

func (m metric) value() float64 {
	if m.kind == KindCounter {
		return float64(m.readU())
	}
	return m.readF()
}

// Sample is one metric's value at snapshot time.
type Sample struct {
	Name  string
	Kind  MetricKind
	Value float64
}

// Uint64 returns the counter value of a KindCounter sample.
func (s Sample) Uint64() uint64 { return uint64(s.Value) }

// Registry is an ordered collection of named metrics. Components
// register read closures over their existing counters at wiring time;
// snapshots walk the registry in registration order, which keeps every
// derived artifact (JSON results, metric CSVs) deterministic.
type Registry struct {
	metrics []metric
	index   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

func (r *Registry) add(m metric) {
	if r == nil {
		return
	}
	if _, dup := r.index[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.index[m.name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// CounterFunc registers a monotonic counter read through fn under a
// dotted name (e.g. "nic.rx_packets"); that name is the key in the
// -stats dump, the -json document and the metric series. Duplicate
// names panic: registration happens once, at wiring time, and a
// collision is a programming error.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.add(metric{name: name, kind: KindCounter, readU: fn})
}

// GaugeFunc registers an instantaneous measurement read through fn.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.add(metric{name: name, kind: KindGauge, readF: fn})
}

// Names returns metric names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		names[i] = m.name
	}
	return names
}

// Lookup reads a single metric by name.
func (r *Registry) Lookup(name string) (Sample, bool) {
	if r == nil {
		return Sample{}, false
	}
	i, ok := r.index[name]
	if !ok {
		return Sample{}, false
	}
	m := r.metrics[i]
	return Sample{Name: m.name, Kind: m.kind, Value: m.value()}, true
}

// Snapshot reads every metric, in registration order.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = Sample{Name: m.name, Kind: m.kind, Value: m.value()}
	}
	return out
}

// Series is a fixed-column time series of registry snapshots, one row
// per SampleMetrics call.
type Series struct {
	names []string
	times []sim.Time
	rows  [][]float64
}

func newSeries(names []string) *Series { return &Series{names: names} }

func (s *Series) record(now sim.Time, r *Registry) {
	row := make([]float64, len(s.names))
	for i, name := range s.names {
		if sm, ok := r.Lookup(name); ok {
			row[i] = sm.Value
		}
	}
	s.times = append(s.times, now)
	s.rows = append(s.rows, row)
}

// Len returns the number of recorded rows.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// Names returns the column names (without the leading time column).
func (s *Series) Names() []string {
	if s == nil {
		return nil
	}
	return s.names
}

// Row returns the sample time (µs) and values of row i.
func (s *Series) Row(i int) (float64, []float64) {
	return s.times[i].Microseconds(), s.rows[i]
}

// WriteCSV writes the series as "time_us,<metric>,..." with one row
// per snapshot. The time column prints with three decimals; the series
// does not keep metric kinds, so every value prints via %g, which
// round-trips exactly and loads cleanly in pandas/gnuplot.
func (s *Series) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	if _, err := fmt.Fprint(w, "time_us"); err != nil {
		return err
	}
	for _, n := range s.names {
		if _, err := fmt.Fprintf(w, ",%s", n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i := range s.rows {
		if _, err := fmt.Fprintf(w, "%.3f", s.times[i].Microseconds()); err != nil {
			return err
		}
		for _, v := range s.rows[i] {
			if _, err := fmt.Fprintf(w, ",%g", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
