// Package flow provides a compact open-addressing hash table for
// per-flow simulation state, sized for millions of entries.
//
// The design targets are the million-flow engine's (ROADMAP) three
// constraints, which rule out the obvious alternatives:
//
//   - Inline slots, no per-entry pointers: a map[uint64]V allocates a
//     bucket chain and hides its layout from the allocator; a slice of
//     robin-hood slots is one allocation, cache-dense, and invisible
//     to the GC when V holds no pointers. sync.Map is worse still —
//     every store boxes, and its amortized guarantees assume
//     concurrent readers the single-threaded event loop never has.
//   - Deterministic iteration: Go map range order is randomized per
//     run, so any model decision derived from it would break the
//     byte-identical-output guarantee. Robin-hood layout is a pure
//     function of the insert/delete history, and Range walks slots in
//     index order — same history, same order, every run.
//   - Zero steady-state allocations: a warm table recycles its slots
//     forever. Growth (growable mode) rehashes into a doubled array —
//     amortized, and absent entirely once the population peak has
//     been seen. Fixed mode never allocates after construction and
//     models a hardware table: inserts beyond capacity are refused
//     and counted, exactly like a full NIC filter table.
//
// Robin-hood hashing keeps probe sequences short at high load by
// displacing rich entries (small probe distance) in favour of poor
// ones: the variance of probe lengths stays low up to the 7/8 load
// bound enforced here, so lookups stay O(1) with tight constants.
// Deletion backward-shifts the displaced run instead of tombstoning,
// so mixed insert/delete churn never degrades the table.
//
// Tables are sized exactly: a table built for hint entries holds
// ceil(hint*8/7) slots — the fewest that keep the 7/8 bound — rather
// than the next power of two, which can leave a million-entry table
// at 0.44 load. A key's home slot is the high word of mix(key)*n
// (multiply-high maps the 64-bit hash uniformly onto [0,n) for any
// n), and probes wrap from slot n-1 to slot 0. A slot costs the 8-byte
// key, the 2-byte probe distance and the value, padded to the value's
// alignment: 40 bytes for the churn client's 24-byte flow record.
package flow

import (
	"math/bits"
	"unsafe"
)

// maxLoadNum/maxLoadDen bound the load factor at 7/8: robin-hood probe
// variance is still small there, and the bound makes fixed-capacity
// tables refuse inserts before probe chains degenerate.
const (
	maxLoadNum = 7
	maxLoadDen = 8
	// minSlots is the smallest slot array a table is built with.
	minSlots = 8
)

// slot is one inline table entry. dist is the probe distance plus one
// (the "riches" of robin-hood hashing); zero marks the slot empty, so
// any uint64 — including zero — is a legal key.
type slot[V any] struct {
	key  uint64
	dist uint16
	val  V
}

// SlotSize returns the bytes one slot of a Table[V] occupies: the key,
// the probe distance and V, padded to V's alignment. A table built for
// n entries holds about n*8/7 slots.
func SlotSize[V any]() uintptr { return unsafe.Sizeof(slot[V]{}) }

// Table is a robin-hood open-addressing hash table keyed by uint64.
// The zero value is not usable; construct with New or NewFixed. Not
// safe for concurrent use — it lives inside a single simulator, like
// everything else in the model.
type Table[V any] struct {
	slots []slot[V]
	n     int
	// fixedCap > 0 marks a fixed-capacity table: Put refuses (and
	// counts) inserts past fixedCap instead of growing.
	fixedCap int
	grows    uint64
	refusals uint64
}

// mix is the splitmix64 finalizer: a full-avalanche bijection, so
// sequential keys (flow IDs, wire sequence numbers) spread uniformly
// across the slot array.
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// slotsFor returns the slot count that holds entries at the 7/8
// bound: ceil(entries*8/7), minimum minSlots.
func slotsFor(entries int) int {
	return max(minSlots, (entries*maxLoadDen+maxLoadNum-1)/maxLoadNum)
}

// home returns key's home slot: the high word of mix(key)*n, which
// spreads the hash uniformly over [0,n) for any slot count n.
func (t *Table[V]) home(key uint64) int {
	hi, _ := bits.Mul64(mix(key), uint64(len(t.slots)))
	return int(hi)
}

// next returns the probe successor of slot i, wrapping at the end.
func (t *Table[V]) next(i int) int {
	if i++; i == len(t.slots) {
		return 0
	}
	return i
}

// New returns a growable table pre-sized for hint entries: hint
// inserts never grow it.
func New[V any](hint int) *Table[V] {
	return &Table[V]{slots: make([]slot[V], slotsFor(max(hint, 0)))}
}

// NewFixed returns a fixed-capacity table holding at most capacity
// entries. It never allocates after construction: a Put that would
// exceed capacity is refused and counted — the model of a hardware
// flow table running out of entries.
func NewFixed[V any](capacity int) *Table[V] {
	if capacity <= 0 {
		panic("flow: fixed table needs positive capacity")
	}
	return &Table[V]{slots: make([]slot[V], slotsFor(capacity)), fixedCap: capacity}
}

// Len returns the number of entries. Safe on a nil table (0).
func (t *Table[V]) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// LoadFactor returns entries per slot in [0,1].
func (t *Table[V]) LoadFactor() float64 {
	if t == nil || len(t.slots) == 0 {
		return 0
	}
	return float64(t.n) / float64(len(t.slots))
}

// Grows returns how many times the backing array doubled (0 forever
// once the population peak has been seen — the steady-state guarantee).
func (t *Table[V]) Grows() uint64 { return t.grows }

// Refusals returns inserts refused by a full fixed-capacity table.
func (t *Table[V]) Refusals() uint64 {
	if t == nil {
		return 0
	}
	return t.refusals
}

// Ref returns a pointer to the value stored under key, or nil when
// absent. The pointer is valid only until the next Put or Delete —
// both may move slots (growth rehashes, robin-hood displaces,
// deletion backward-shifts).
func (t *Table[V]) Ref(key uint64) *V {
	if t == nil || t.n == 0 {
		return nil
	}
	i := t.home(key)
	d := uint16(1)
	for {
		s := &t.slots[i]
		if s.dist < d { // empty (0) or a richer resident: key absent
			return nil
		}
		if s.dist == d && s.key == key {
			return &s.val
		}
		i = t.next(i)
		d++
	}
}

// Get returns the value stored under key.
func (t *Table[V]) Get(key uint64) (V, bool) {
	if p := t.Ref(key); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Put inserts or updates key. It returns false only when a
// fixed-capacity table is full and key is absent (the insert is
// refused and counted); growable tables always succeed.
func (t *Table[V]) Put(key uint64, val V) bool {
	if t.fixedCap > 0 {
		if t.n >= t.fixedCap {
			// Full: updates of resident keys are still legal, new keys
			// are refused before any displacement can begin.
			if p := t.Ref(key); p != nil {
				*p = val
				return true
			}
			t.refusals++
			return false
		}
	} else if (t.n+1)*maxLoadDen > len(t.slots)*maxLoadNum {
		t.grow()
	}
	t.insert(key, val)
	return true
}

// insert places key/val with room guaranteed. Robin-hood: carry the
// entry along its probe sequence, swapping with any resident that is
// richer (smaller dist); a resident equal in key can only be met
// before the first swap, because resident keys are unique.
func (t *Table[V]) insert(key uint64, val V) {
	k, v, d := key, val, uint16(1)
	i := t.home(key)
	for {
		s := &t.slots[i]
		if s.dist == 0 {
			s.key, s.val, s.dist = k, v, d
			t.n++
			return
		}
		if s.dist == d && s.key == k {
			s.val = v // update in place
			return
		}
		if s.dist < d {
			k, s.key = s.key, k
			v, s.val = s.val, v
			d, s.dist = s.dist, d
		}
		i = t.next(i)
		d++
	}
}

// Delete removes key, reporting whether it was present. The displaced
// run following the hole is shifted back one slot (no tombstones), so
// churny workloads keep their probe lengths.
func (t *Table[V]) Delete(key uint64) bool {
	if t == nil || t.n == 0 {
		return false
	}
	i := t.home(key)
	d := uint16(1)
	for {
		s := &t.slots[i]
		if s.dist < d {
			return false
		}
		if s.dist == d && s.key == key {
			break
		}
		i = t.next(i)
		d++
	}
	t.n--
	for {
		j := t.next(i)
		s := &t.slots[j]
		if s.dist <= 1 { // next is empty or at home: run ends here
			break
		}
		t.slots[i] = *s
		t.slots[i].dist = s.dist - 1
		i = j
	}
	t.slots[i] = slot[V]{} // clear: releases any pointers in V
	return true
}

// Range calls fn for every entry in slot order — a deterministic
// order: the layout is a pure function of the operation history, so
// two runs with identical histories iterate identically. fn may
// mutate the value through the pointer but must not Put or Delete.
// Returning false stops the walk.
func (t *Table[V]) Range(fn func(key uint64, val *V) bool) {
	if t == nil {
		return
	}
	for i := range t.slots {
		if t.slots[i].dist != 0 {
			if !fn(t.slots[i].key, &t.slots[i].val) {
				return
			}
		}
	}
}

// grow doubles the slot array and reinserts every entry. Amortized
// O(1) per insert; a table that has seen its peak population never
// grows again.
func (t *Table[V]) grow() {
	old := t.slots
	t.slots = make([]slot[V], len(old)*2)
	t.n = 0
	t.grows++
	for i := range old {
		if old[i].dist != 0 {
			t.insert(old[i].key, old[i].val)
		}
	}
}
