package experiment

import (
	"sync/atomic"
	"testing"
)

func TestRunCellsOrderAndCoverage(t *testing.T) {
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i
	}
	for _, par := range []int{0, 1, 3, 8, 200} {
		out := runCells(par, cells, func(c int) int { return c * c })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestRunCellsEmpty(t *testing.T) {
	if out := runCells(4, nil, func(c int) int { return c }); len(out) != 0 {
		t.Fatalf("expected empty result, got %v", out)
	}
}

func TestRunCellsEachCellOnce(t *testing.T) {
	var calls [64]atomic.Int32
	cells := make([]int, len(calls))
	for i := range cells {
		cells[i] = i
	}
	runCells(8, cells, func(c int) struct{} {
		calls[c].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times, want 1", i, n)
		}
	}
}

// TestFig9ParallelDeterminism is the regression test for the pool's
// core claim: fanning cells over workers changes wall-clock time only.
// The -quick Fig. 9 table and its timeline CSVs must be byte-identical
// at parallelism 1 and 8.
func TestFig9ParallelDeterminism(t *testing.T) { checkParallelism(t, "fig9") }
