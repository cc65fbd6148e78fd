package flow

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestTableBasic covers the fundamental contract on a handful of keys,
// including key zero (legal: emptiness is tracked by probe distance,
// not a reserved key).
func TestTableBasic(t *testing.T) {
	tb := New[int](0)
	if _, ok := tb.Get(0); ok {
		t.Fatal("empty table claims key 0")
	}
	tb.Put(0, 10)
	tb.Put(1, 11)
	tb.Put(1<<63, 12)
	if v, ok := tb.Get(0); !ok || v != 10 {
		t.Fatalf("Get(0) = %d,%v", v, ok)
	}
	if v, ok := tb.Get(1 << 63); !ok || v != 12 {
		t.Fatalf("Get(1<<63) = %d,%v", v, ok)
	}
	tb.Put(1, 21) // update
	if v, _ := tb.Get(1); v != 21 {
		t.Fatalf("update lost: %d", v)
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if !tb.Delete(1) || tb.Delete(1) {
		t.Fatal("Delete(1) contract")
	}
	if _, ok := tb.Get(1); ok {
		t.Fatal("deleted key still present")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len after delete = %d", tb.Len())
	}
}

// hints are the table sizes the property tests run at: zero, tiny,
// the 7/8 rounding edges of the minimum table, and capacities well
// off any power of two.
var hints = []int{0, 1, 7, 8, 100, 1000, 4097, 100000}

// TestTableVsMapProperty drives a long randomized insert/update/
// delete/lookup sequence against a map reference, once per size hint.
// Key space is kept narrow so collisions, displacement chains and
// backward shifts (including across the wrap from the last slot to
// the first) are exercised constantly; the table must agree with the
// map after every operation and at the end entry-for-entry via Range.
func TestTableVsMapProperty(t *testing.T) {
	for _, h := range hints {
		t.Run(fmt.Sprintf("hint=%d", h), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			tb := New[uint64](h)
			ref := make(map[uint64]uint64)
			keys := max(4096, h) // narrow: heavy collision pressure
			const ops = 200000
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(keys))
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // insert/update
					v := rng.Uint64()
					tb.Put(k, v)
					ref[k] = v
				case 4, 5: // delete
					want := false
					if _, ok := ref[k]; ok {
						want = true
						delete(ref, k)
					}
					if got := tb.Delete(k); got != want {
						t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
					}
				default: // lookup
					wv, wok := ref[k]
					gv, gok := tb.Get(k)
					if gok != wok || (gok && gv != wv) {
						t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, gv, gok, wv, wok)
					}
				}
				if tb.Len() != len(ref) {
					t.Fatalf("op %d: Len %d != map %d", i, tb.Len(), len(ref))
				}
			}
			seen := make(map[uint64]uint64)
			tb.Range(func(k uint64, v *uint64) bool {
				if _, dup := seen[k]; dup {
					t.Fatalf("Range yielded key %d twice", k)
				}
				seen[k] = *v
				return true
			})
			if len(seen) != len(ref) {
				t.Fatalf("Range yielded %d entries, want %d", len(seen), len(ref))
			}
			for k, v := range ref {
				if seen[k] != v {
					t.Fatalf("Range[%d] = %d, want %d", k, seen[k], v)
				}
			}
		})
	}
}

// TestTableExactSizing pins exact sizing: a table for h entries holds
// at most ceil(h*8/7) slots (or the minimum), and h inserts fit
// without growing and within the 7/8 bound.
func TestTableExactSizing(t *testing.T) {
	for _, h := range hints {
		want := max(minSlots, (h*8+6)/7)
		tb := New[uint64](h)
		if len(tb.slots) > want {
			t.Errorf("New(%d) allocated %d slots, want <= %d", h, len(tb.slots), want)
		}
		for k := 0; k < h; k++ {
			tb.Put(uint64(k), uint64(k))
		}
		if tb.Grows() != 0 {
			t.Errorf("New(%d) grew %d times during %d inserts", h, tb.Grows(), h)
		}
		if lf := tb.LoadFactor(); lf > float64(maxLoadNum)/float64(maxLoadDen) {
			t.Errorf("New(%d) at load %.3f after %d inserts", h, lf, h)
		}
		if h > 0 {
			if fx := NewFixed[uint64](h); len(fx.slots) > want {
				t.Errorf("NewFixed(%d) allocated %d slots, want <= %d", h, len(fx.slots), want)
			}
		}
	}
}

// TestTableDeleteAcrossWrap builds a displaced run that straddles the
// end of the slot array — a key homed at slot n-1, a collider pushed
// to slot 0, and a key homed at 0 pushed to slot 1 — and deletes the
// run's head: the backward shift must carry both survivors back
// across the wrap to their home slots.
func TestTableDeleteAcrossWrap(t *testing.T) {
	tb := New[uint64](100) // 115 slots: not a power of two
	n := len(tb.slots)
	var last, first []uint64
	for k := uint64(0); len(last) < 2 || len(first) < 1; k++ {
		switch tb.home(k) {
		case n - 1:
			last = append(last, k)
		case 0:
			first = append(first, k)
		}
	}
	a, b, c := last[0], last[1], first[0]
	tb.Put(a, 1)
	tb.Put(b, 2)
	tb.Put(c, 3)
	if tb.slots[0].key != b || tb.slots[0].dist != 2 || tb.slots[1].key != c || tb.slots[1].dist != 2 {
		t.Fatalf("setup did not wrap: slot0=%+v slot1=%+v", tb.slots[0], tb.slots[1])
	}
	if !tb.Delete(a) {
		t.Fatal("Delete of the run head failed")
	}
	if s := tb.slots[n-1]; s.key != b || s.dist != 1 {
		t.Fatalf("slot n-1 = %+v, want key %d at home", s, b)
	}
	if s := tb.slots[0]; s.key != c || s.dist != 1 {
		t.Fatalf("slot 0 = %+v, want key %d at home", s, c)
	}
	if tb.slots[1].dist != 0 {
		t.Fatalf("slot 1 not cleared: %+v", tb.slots[1])
	}
	for k, v := range map[uint64]uint64{b: 2, c: 3} {
		if got, ok := tb.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v after wrap delete", k, got, ok)
		}
	}
	if _, ok := tb.Get(a); ok {
		t.Fatal("deleted key still present")
	}
}

// TestTableLoadFactorSweep fills a growable table to several load
// levels, checking the 7/8 bound holds and that every key stays
// reachable through each doubling.
func TestTableLoadFactorSweep(t *testing.T) {
	tb := New[uint64](0)
	for n := uint64(1); n <= 1<<16; n++ {
		tb.Put(n*0x9E3779B9, n)
		if lf := tb.LoadFactor(); lf > float64(maxLoadNum)/float64(maxLoadDen) {
			t.Fatalf("n=%d: load factor %.3f exceeds bound", n, lf)
		}
	}
	if tb.Grows() == 0 {
		t.Fatal("64k inserts never grew the table")
	}
	for n := uint64(1); n <= 1<<16; n++ {
		if v, ok := tb.Get(n * 0x9E3779B9); !ok || v != n {
			t.Fatalf("key %d lost across growth: %d,%v", n, v, ok)
		}
	}
}

// TestTableFixedRefusal checks the hardware-table mode at every
// positive size hint: a fixed table accepts exactly its capacity,
// refuses (and counts) further inserts, still updates resident keys
// while full, never grows, and frees a slot for a new key after a
// delete. A zero capacity is a construction error.
func TestTableFixedRefusal(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewFixed(0) did not panic")
			}
		}()
		NewFixed[int](0)
	}()
	for _, capacity := range hints {
		if capacity == 0 {
			continue
		}
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			tb := NewFixed[int](capacity)
			for k := 0; k < capacity; k++ {
				if !tb.Put(uint64(k), k) {
					t.Fatalf("Put %d refused below capacity", k)
				}
			}
			if tb.Put(uint64(capacity), 0) {
				t.Fatal("Put beyond capacity accepted")
			}
			if tb.Refusals() != 1 {
				t.Fatalf("Refusals = %d", tb.Refusals())
			}
			upd, del := uint64(capacity/2), uint64(capacity-1)
			if !tb.Put(upd, -1) { // resident update while full
				t.Fatal("update of resident key refused while full")
			}
			if v, _ := tb.Get(upd); v != -1 {
				t.Fatalf("full-table update lost: %d", v)
			}
			if tb.Grows() != 0 {
				t.Fatal("fixed table grew")
			}
			if !tb.Delete(del) {
				t.Fatalf("Delete(%d) failed", del)
			}
			if !tb.Put(uint64(capacity), 1) {
				t.Fatal("Put refused after a delete freed a slot")
			}
			if tb.Len() != capacity {
				t.Fatalf("Len = %d, want %d", tb.Len(), capacity)
			}
		})
	}
}

// TestTableRangeDeterministic re-runs one operation history twice and
// requires identical Range order — the property the byte-identical
// output guarantee leans on.
func TestTableRangeDeterministic(t *testing.T) {
	build := func() []uint64 {
		rng := rand.New(rand.NewSource(7))
		tb := New[int](0)
		for i := 0; i < 20000; i++ {
			k := uint64(rng.Intn(2048))
			if rng.Intn(3) == 0 {
				tb.Delete(k)
			} else {
				tb.Put(k, i)
			}
		}
		var order []uint64
		tb.Range(func(k uint64, _ *int) bool {
			order = append(order, k)
			return true
		})
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("orders differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTableSteadyStateAllocs proves the churn steady state stays off
// the heap: once the population peak has been seen, endless
// insert/delete cycles allocate nothing.
func TestTableSteadyStateAllocs(t *testing.T) {
	tb := New[uint64](0)
	for k := uint64(0); k < 1<<14; k++ {
		tb.Put(k, k)
	}
	next := uint64(1 << 14)
	old := uint64(0)
	avg := testing.AllocsPerRun(1000, func() {
		tb.Delete(old)
		tb.Put(next, next)
		old++
		next++
	})
	if avg != 0 {
		t.Fatalf("steady-state churn allocates %.2f per op", avg)
	}
}
