package experiment

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	idiocore "idio/internal/core"
	"idio/internal/sim"
)

func TestRunCellsOrderAndCoverage(t *testing.T) {
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i
	}
	for _, par := range []int{0, 1, 3, 8, 200} {
		out := RunCells(par, cells, func(c int) int { return c * c })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestRunCellsEmpty(t *testing.T) {
	if out := RunCells(4, nil, func(c int) int { return c }); len(out) != 0 {
		t.Fatalf("expected empty result, got %v", out)
	}
}

func TestRunCellsEachCellOnce(t *testing.T) {
	var calls [64]atomic.Int32
	cells := make([]int, len(calls))
	for i := range cells {
		cells[i] = i
	}
	RunCells(8, cells, func(c int) struct{} {
		calls[c].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times, want 1", i, n)
		}
	}
}

func TestRunTasksRunsAll(t *testing.T) {
	var mu sync.Mutex
	var got []int
	RunTasks(4,
		func() { mu.Lock(); got = append(got, 0); mu.Unlock() },
		func() { mu.Lock(); got = append(got, 1); mu.Unlock() },
		func() { mu.Lock(); got = append(got, 2); mu.Unlock() })
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("tasks ran: %v", got)
	}
}

// TestFig9ParallelDeterminism is the regression test for the PR's core
// claim: fanning a figure grid over the worker pool changes wall-clock
// time only. A reduced-scale Fig. 9 must produce deeply equal cells —
// and byte-identical rendered output — at Parallelism 1 and 8.
func TestFig9ParallelDeterminism(t *testing.T) {
	opts := Fig9Opts{
		Geometry: Geometry{RingSize: 128, MLCSize: 128 << 10, LLCSize: 384 << 10},
		Rates:    []float64{25},
		Policies: []idiocore.Policy{
			idiocore.PolicyDDIO, idiocore.PolicyStatic, idiocore.PolicyIDIO,
		},
		Horizon: 2 * sim.Millisecond,
	}
	serial := opts
	serial.Parallelism = 1
	parallel := opts
	parallel.Parallelism = 8

	a := Fig9(serial)
	b := Fig9(parallel)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Fig9 cells differ between Parallelism 1 and 8:\nserial:   %+v\nparallel: %+v", a, b)
	}

	render := func(cells []Fig9Cell) []byte {
		var buf bytes.Buffer
		rows := make([]TableRow, len(cells))
		for i, c := range cells {
			rows[i] = c
		}
		if err := WriteTable(&buf, "fig9", Fig9Header(), rows); err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if err := WriteSeriesCSV(&buf, c.MLCWB, c.LLCWB, c.DMA); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if ra, rb := render(a), render(b); !bytes.Equal(ra, rb) {
		t.Fatalf("rendered output differs between Parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", ra, rb)
	}
}
