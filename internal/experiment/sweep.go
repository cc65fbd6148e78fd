package experiment

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"idio"
	"idio/internal/scenario"
)

// Sweep is one catalogue entry: a named grid of runs and how its text
// output (tables or summary lines) and CSV side files project from
// them.
type Sweep struct {
	Name string
	// cells builds the entry's cells under env, in table order.
	cells func(env Env) ([]*cell, error)
	// tables render the runs in order; a cell belongs to tables[cell.table].
	tables []table
	// text, when set, prints the entry's summary lines instead.
	text func(w io.Writer, runs []*run) error
	// files lists the entry's CSV side files.
	files func(runs []*run) []SeriesFile
}

// cell is one run of a sweep.
type cell struct {
	labels []string
	desc   scenario.Desc
	// ref, when set, is the run this cell's normalized columns divide
	// by. It need not be a row of the sweep (a hidden baseline), and it
	// may be the cell itself.
	ref *cell
	// arm, when set, hooks probes or sinks onto the built rig; its
	// value becomes the run's probe.
	arm func(*scenario.Rig) any
	// table indexes the sweep's tables.
	table int
}

// run is a finished cell: what columns project from.
type run struct {
	*cell
	rig   *scenario.Rig
	res   idio.Results
	ref   *run
	probe any
	// part is the row's share of a run that renders several rows
	// (table.parts).
	part any
}

// table is one rendered table: its title, the headers of the cells'
// labels and the columns that follow them.
type table struct {
	title string
	head  []string
	cols  []col
	// parts, when set, splits one run into several rows (a chaos
	// phase, a QoS class); each row's columns see its part.
	parts func(*run) []any
}

// col is a table column: a header and a projection of one row.
type col struct {
	head string
	of   func(*run) string
}

// num is a column printing m with format.
func num(head, format string, m func(*run) float64) col {
	return col{head, func(r *run) string { return fmt.Sprintf(format, m(r)) }}
}

// norm is m relative to the reference run's m.
func norm(m func(*run) float64) func(*run) float64 {
	return func(r *run) float64 { return ratio(m(r), m(r.ref)) }
}

// Env is how a catalogue entry runs.
type Env struct {
	// Quick selects the entries' reduced-size values.
	Quick bool
	// Parallelism bounds the worker pool (0 = GOMAXPROCS, 1 = serial);
	// the output is identical at every setting.
	Parallelism int
	// Base, when non-nil, is the compiled scenario of `idiosim -exp rpc
	// -scenario f`: the rpc entry sweeps from it, keeping its ring and
	// applying only the -quick cache sizes. Other entries ignore it.
	Base *scenario.Desc
}

// pick returns quick under -quick and full otherwise.
func pick[T any](env Env, full, quick T) T {
	if env.Quick {
		return quick
	}
	return full
}

// SeriesFile is one CSV side file: timelines sharing a time axis.
type SeriesFile struct {
	Name   string
	Series []Series
}

// Output is one entry's rendering by RunAll.
type Output struct {
	Name  string
	Text  bytes.Buffer
	Files []SeriesFile
	Err   error
}

// Lookup returns the catalogue entry with the given name.
func Lookup(name string) (Sweep, bool) {
	for _, s := range Catalogue {
		if s.Name == name {
			return s, true
		}
	}
	return Sweep{}, false
}

// RunAll renders every sweep into a private buffer. The cells of all
// of them go through one worker pool of env.Parallelism workers;
// every cell is deterministic in isolation, so the outputs, in input
// order, are byte-identical at any parallelism.
func RunAll(sweeps []Sweep, env Env) []*Output {
	outs := make([]*Output, len(sweeps))
	cells := make([][]*cell, len(sweeps))
	var all []*cell
	for i, s := range sweeps {
		outs[i] = &Output{Name: s.Name}
		cells[i], outs[i].Err = s.cells(env)
		all = append(all, cells[i]...)
	}
	runs := execute(env.Parallelism, all)
	for i, s := range sweeps {
		mine := runs[:len(cells[i])]
		runs = runs[len(cells[i]):]
		if outs[i].Err == nil {
			outs[i].Files, outs[i].Err = s.render(&outs[i].Text, mine)
		}
	}
	return outs
}

// render writes the sweep's text for its runs and returns its CSV side
// files.
func (s Sweep) render(w io.Writer, runs []*run) ([]SeriesFile, error) {
	var files []SeriesFile
	if s.files != nil {
		files = s.files(runs)
	}
	if s.text != nil {
		return files, s.text(w, runs)
	}
	for ti, t := range s.tables {
		rows := [][]string{slices.Concat(t.head, headers(t.cols))}
		for _, r := range runs {
			if r.table != ti {
				continue
			}
			parts := []any{nil}
			if t.parts != nil {
				parts = t.parts(r)
			}
			for _, p := range parts {
				row := *r
				row.part = p
				cells := slices.Clone(r.labels)
				for _, c := range t.cols {
					cells = append(cells, c.of(&row))
				}
				rows = append(rows, cells)
			}
		}
		if err := writeTable(w, t.title, rows); err != nil {
			return files, err
		}
	}
	return files, nil
}

func headers(cols []col) []string {
	h := make([]string, len(cols))
	for i, c := range cols {
		h[i] = c.head
	}
	return h
}

// execute runs cells, and the reference cells they name, once each
// over parallelism workers, and returns the cells' runs in order.
func execute(parallelism int, cells []*cell) []*run {
	all := slices.Clone(cells)
	seen := make(map[*cell]bool, len(cells))
	for _, c := range cells {
		seen[c] = true
	}
	for _, c := range cells {
		if c.ref != nil && !seen[c.ref] {
			seen[c.ref] = true
			all = append(all, c.ref)
		}
	}
	runs := runCells(parallelism, all, (*cell).run)
	byCell := make(map[*cell]*run, len(all))
	for _, r := range runs {
		byCell[r.cell] = r
	}
	for _, r := range runs {
		r.ref = byCell[r.cell.ref]
	}
	return runs[:len(cells)]
}

// run builds the cell's description, arms it and runs it. A
// description a sweep wrote is a program bug if it does not build.
func (c *cell) run() *run {
	rig, err := scenario.Build(c.desc)
	if err != nil {
		panic(err)
	}
	r := &run{cell: c, rig: rig}
	if c.arm != nil {
		r.probe = c.arm(rig)
	}
	r.res = rig.Run()
	return r
}

// runCells runs fn over every cell and returns the results in cell
// order. parallelism bounds the worker count: 0 means GOMAXPROCS, 1
// forces the serial path, and values above the cell count are clamped.
// fn must not touch shared mutable state; every cell satisfies this
// because Build constructs a private system per cell.
func runCells[T, R any](parallelism int, cells []T, fn func(T) R) []R {
	out := make([]R, len(cells))
	p := parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	p = min(p, len(cells))
	if p <= 1 {
		for i := range cells {
			out[i] = fn(cells[i])
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				out[i] = fn(cells[i])
			}
		}()
	}
	wg.Wait()
	return out
}
