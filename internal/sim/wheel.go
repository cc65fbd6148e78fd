package sim

import "math/bits"

// Time-wheel scheduling constants. The wheel covers the short-horizon
// bulk of the event population — per-packet DMA line pacing (a few ns
// apart), poll intervals (hundreds of ns), descriptor write-back
// coalescing (~2 µs), link serialization/propagation (µs) — with O(1)
// insertion instead of an O(log n) heap sift. Events past the wheel's
// horizon (sparse long timers: client timeouts, watchdogs, metric
// snapshots) spill to the 4-ary heap, which stays shallow.
const (
	// wheelSlotBits sizes the wheel at 4096 slots.
	wheelSlotBits = 12
	wheelSlots    = 1 << wheelSlotBits
	wheelMask     = wheelSlots - 1
	// wheelGranBits sets the slot granularity to 8192 ps (~8.2 ns) —
	// fine enough that a slot holds only a handful of events once the
	// per-packet DMA chain is fused into burst events.
	wheelGranBits = 13
	// wheelGran is one slot's span; wheelSpan the whole rotation
	// (4096 slots × 8192 ps ≈ 33.5 µs).
	wheelGran = Duration(1) << wheelGranBits
	wheelSpan = Duration(wheelSlots) << wheelGranBits
	// wheelSlotCap fixes each slot's bucket capacity. Buckets are carved
	// out of one contiguous slab at construction and never grow: a full
	// bucket refuses the push and the event spills to the heap, so the
	// steady state allocates nothing no matter how lumpy the schedule.
	wheelSlotCap = 8
)

// timeWheel is the dense half of the two-level scheduler: a circular
// calendar of per-slot buckets plus an occupancy bitmap. Scheduling
// appends to a bucket in O(1); buckets are sorted by (at, seq) only
// when the consuming cursor reaches them, so the amortized per-event
// cost is one append plus a share of a small-bucket sort.
//
// Determinism argument: the simulator's total order is (at, seq) with
// seq unique, and the wheel preserves it exactly. Every event in slot
// k fires before every event in slot k+1 (slot ranges are disjoint
// time intervals), and within a slot the sort recovers the (at, seq)
// order; late arrivals into the already-sorted cursor slot are
// inserted in (at, seq) position within its unconsumed tail, which is
// always ahead of the consume cursor (see push). The only events that
// could violate the "sorted then drained" discipline — events behind
// an already-advanced cursor, events a full rotation or more ahead
// (which would alias into an earlier slot), and overflow of a full
// bucket — are refused by push and diverted to the heap, whose pop
// order is compared against the wheel head on every dispatch. The
// merged stream is therefore the exact (at, seq) sequence a single
// heap would produce.
type timeWheel struct {
	slots  [][]schedEvent
	bitmap []uint64
	// cursor is the slot currently being (or next to be) drained; base
	// is that slot's absolute start time. All wheel events lie in
	// [base, base+wheelSpan).
	cursor int
	base   Time
	// pos/sorted describe the cursor slot: once sorted, slots[cursor]
	// is consumed in order from pos; new arrivals are inserted in order
	// into the unconsumed tail (see push).
	pos    int
	sorted bool
	count  int
}

func newTimeWheel() timeWheel {
	w := timeWheel{
		slots:  make([][]schedEvent, wheelSlots),
		bitmap: make([]uint64, wheelSlots/64),
	}
	slab := make([]schedEvent, wheelSlots*wheelSlotCap)
	for i := range w.slots {
		w.slots[i] = slab[i*wheelSlotCap : i*wheelSlotCap : (i+1)*wheelSlotCap]
	}
	return w
}

// push files e into its slot, returning false when the event must go
// to the heap instead: at behind the cursor slot's start, at beyond
// one full rotation (it would alias into a stale slot), or into a
// bucket already at capacity. A push into the cursor slot after it was
// sorted — the common case for events scheduled a few ns ahead by a
// running handler — is inserted in order into the slot's unconsumed
// tail instead of spilling: any event scheduled while dispatching
// orders at or after the event being dispatched (scheduling into the
// past panics upstream, fresh seqs exceed consumed ones, and a stream
// files each reserved-seq successor (AtArgSeq) only after its own
// predecessor in (at, seq) order), so a valid position at or after the
// consume cursor always exists.
func (w *timeWheel) push(e schedEvent) bool {
	if e.at < w.base || e.at-w.base >= Time(wheelSpan) {
		return false
	}
	slot := int(e.at>>wheelGranBits) & wheelMask
	b := w.slots[slot]
	if len(b) == wheelSlotCap {
		return false
	}
	if slot == w.cursor && w.sorted {
		b = append(b, e)
		k := len(b) - 1
		for k > w.pos && lessEv(e, b[k-1]) {
			b[k] = b[k-1]
			k--
		}
		b[k] = e
		w.slots[slot] = b
	} else {
		w.slots[slot] = append(b, e)
	}
	w.bitmap[slot>>6] |= 1 << (slot & 63)
	w.count++
	return true
}

// peekUntil returns the wheel's minimum event without consuming it,
// moving the cursor to (and sorting) the next occupied slot — but
// never to a slot that starts after limit. When the next event lies in
// such a slot, peekUntil leaves the cursor where it is and returns,
// with exact false, that slot's start and seq 0: a lower bound on
// every wheel event's key. Only the head's key is returned; pop
// consumes the event itself. Keeping the cursor at or before the
// instant a suspended handler resumes at is what lets the events it
// schedules next land in the wheel instead of spilling behind the
// cursor to the heap. A drained cursor slot is recycled in place, so
// later arrivals in its time range still fit in the wheel.
func (w *timeWheel) peekUntil(limit Time) (at Time, seq uint64, exact, ok bool) {
	cur := w.cursor
	from := cur
	if w.sorted {
		b := w.slots[cur]
		if w.pos < len(b) {
			return b[w.pos].at, b[w.pos].seq, true, true
		}
		if len(b) > 0 {
			// Drained: its elements were zeroed as they were popped.
			w.slots[cur] = b[:0]
			w.pos = 0
			w.bitmap[cur>>6] &^= 1 << (cur & 63)
		}
		from = (cur + 1) & wheelMask
	}
	if w.count == 0 {
		return 0, 0, false, false
	}
	c := w.nextOccupied(from)
	start := w.base + Time(Duration((c-cur)&wheelMask)<<wheelGranBits)
	if start > limit {
		return start, 0, false, true
	}
	w.cursor, w.base = c, start
	b := w.slots[c]
	sortSched(b)
	w.sorted, w.pos = true, 0
	return b[0].at, b[0].seq, true, true
}

// pop consumes the event peekUntil exposed, zeroing the vacated slot so
// the bucket's backing array does not pin closures or arg payloads for
// the GC. Must be preceded by a peekUntil that returned an exact event.
func (w *timeWheel) pop() schedEvent {
	b := w.slots[w.cursor]
	e := b[w.pos]
	b[w.pos] = schedEvent{}
	w.pos++
	w.count--
	return e
}

// nextOccupied scans the occupancy bitmap circularly from slot `from`
// (inclusive) to the next slot holding events. Callers guarantee
// count > 0, so the scan terminates within one rotation.
func (w *timeWheel) nextOccupied(from int) int {
	word, bit := from>>6, from&63
	if masked := w.bitmap[word] &^ ((1 << bit) - 1); masked != 0 {
		return word<<6 + bits.TrailingZeros64(masked)
	}
	for i := 1; ; i++ {
		wd := (word + i) & (len(w.bitmap) - 1)
		if w.bitmap[wd] != 0 {
			return wd<<6 + bits.TrailingZeros64(w.bitmap[wd])
		}
	}
}

// sortSched orders a bucket by (at, seq) — insertion sort for the
// common handful-of-events case, quicksort above it. Hand-rolled so
// sorting a slot performs no allocation (sort.Slice's closure and
// interface conversions would put the steady state back on the heap).
func sortSched(a []schedEvent) {
	for len(a) > 24 {
		// Median-of-three pivot, recursing into the smaller side so the
		// stack stays logarithmic.
		m := len(a) / 2
		last := len(a) - 1
		if lessEv(a[m], a[0]) {
			a[m], a[0] = a[0], a[m]
		}
		if lessEv(a[last], a[m]) {
			a[m], a[last] = a[last], a[m]
			if lessEv(a[m], a[0]) {
				a[m], a[0] = a[0], a[m]
			}
		}
		pivot := a[m]
		i, j := 0, last
		for i <= j {
			for lessEv(a[i], pivot) {
				i++
			}
			for lessEv(pivot, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j+1 < len(a)-i {
			sortSched(a[:j+1])
			a = a[i:]
		} else {
			sortSched(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i - 1
		for j >= 0 && lessEv(e, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = e
	}
}
