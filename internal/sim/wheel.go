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
	// wheelPoolInit pre-sizes the node pool so a small run's pending
	// population never grows it; the pool grows on demand past this.
	wheelPoolInit = 256
)

// nilNode terminates a slot list and the node free list.
const nilNode = -1

// wheelNode is one pending wheel event: the event by value plus the
// index of the next node in its slot's list (or in the free list).
type wheelNode struct {
	ev   schedEvent
	next int32
}

// timeWheel is the dense half of the two-level scheduler: a circular
// calendar of per-slot event lists plus an occupancy bitmap. A slot is
// one int32 list head indexing a shared node pool, so the calendar
// itself is 16 KiB and the memory behind it tracks the pending
// population, not slots × capacity. Scheduling links a pooled node
// into its slot in O(1); when the consuming cursor reaches a slot, its
// list is gathered into one reused cursor buffer and sorted there by
// (at, seq), so the amortized per-event cost is one link, one copy
// and a share of a small-bucket sort. Nodes recycle through a LIFO
// free list, keeping the working set hot.
//
// Determinism argument: the simulator's total order is (at, seq) with
// seq unique, and the wheel preserves it exactly. Every event in slot
// k fires before every event in slot k+1 (slot ranges are disjoint
// time intervals), and within a slot the sort recovers the (at, seq)
// order; late arrivals into the already-sorted cursor slot are
// inserted in (at, seq) position within the cursor buffer's
// unconsumed tail, which is always ahead of the consume cursor (see
// push). Slots have no capacity limit, so the only events that could
// violate the "sorted then drained" discipline — events behind an
// already-advanced cursor and events a full rotation or more ahead
// (which would alias into an earlier slot) — are refused by push and
// diverted to the heap, whose pop order is compared against the wheel
// head on every dispatch. The merged stream is therefore the exact
// (at, seq) sequence a single heap would produce.
type timeWheel struct {
	// heads holds each slot's list head (nilNode when the slot's list
	// is empty); bitmap marks the slots whose list is non-empty.
	heads  []int32
	bitmap []uint64
	// nodes is the node pool; free heads its LIFO free list, threaded
	// through wheelNode.next.
	nodes []wheelNode
	free  int32
	// cursor is the slot currently being (or next to be) drained; base
	// is that slot's absolute start time. All wheel events lie in
	// [base, base+wheelSpan).
	cursor int
	base   Time
	// buf/pos/sorted describe the cursor slot: once sorted, its events
	// live in buf (its list is empty) and are consumed in order from
	// pos; new arrivals are inserted in order into the unconsumed tail
	// (see push).
	buf    []schedEvent
	pos    int
	sorted bool
	count  int
}

func newTimeWheel() timeWheel {
	w := timeWheel{
		heads:  make([]int32, wheelSlots),
		bitmap: make([]uint64, wheelSlots/64),
		nodes:  make([]wheelNode, 0, wheelPoolInit),
		free:   nilNode,
	}
	for i := range w.heads {
		w.heads[i] = nilNode
	}
	return w
}

// push files e into its slot, returning false when the event must go
// to the heap instead: at behind the cursor slot's start, or at beyond
// one full rotation (it would alias into a stale slot). A push into
// the cursor slot after it was sorted — the common case for events
// scheduled a few ns ahead by a running handler — is inserted in order
// into the cursor buffer's unconsumed tail instead of spilling: any
// event scheduled while dispatching orders at or after the event being
// dispatched (scheduling into the past panics upstream, fresh seqs
// exceed consumed ones, and a stream files each reserved-seq successor
// (AtArgSeq) only after its own predecessor in (at, seq) order), so a
// valid position at or after the consume cursor always exists.
func (w *timeWheel) push(e schedEvent) bool {
	if e.at < w.base || e.at-w.base >= Time(wheelSpan) {
		return false
	}
	slot := int(e.at>>wheelGranBits) & wheelMask
	w.count++
	if slot == w.cursor && w.sorted {
		b := append(w.buf, e)
		k := len(b) - 1
		for k > w.pos && lessEv(e, b[k-1]) {
			b[k] = b[k-1]
			k--
		}
		b[k] = e
		w.buf = b
		return true
	}
	n := w.free
	if n == nilNode {
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{})
	} else {
		w.free = w.nodes[n].next
	}
	nd := &w.nodes[n]
	nd.ev = e
	nd.next = w.heads[slot]
	w.heads[slot] = n
	w.bitmap[slot>>6] |= 1 << (slot & 63)
	return true
}

// rebase moves an empty wheel's window to start at now's slot when now
// lies outside it, reporting whether it moved. Nothing is pending, so
// no event changes slot, and every event still to come lies at or
// after now.
func (w *timeWheel) rebase(now Time) bool {
	if now >= w.base && now-w.base < Time(wheelSpan) {
		return false
	}
	w.buf, w.pos, w.sorted = w.buf[:0], 0, false
	w.cursor = int(now>>wheelGranBits) & wheelMask
	w.base = now &^ Time(wheelGran-1)
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
// cursor to the heap. A drained cursor buffer is reset in place, so
// later arrivals in the cursor slot's time range still fit in the
// wheel.
func (w *timeWheel) peekUntil(limit Time) (at Time, seq uint64, exact, ok bool) {
	cur := w.cursor
	from := cur
	if w.sorted {
		if w.pos < len(w.buf) {
			e := &w.buf[w.pos]
			return e.at, e.seq, true, true
		}
		// Drained: its elements were zeroed as they were popped.
		w.buf = w.buf[:0]
		w.pos = 0
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
	w.gather(c)
	w.sorted, w.pos = true, 0
	return w.buf[0].at, w.buf[0].seq, true, true
}

// gather moves slot c's list into the (empty) cursor buffer, sorted by
// (at, seq), and returns its nodes to the free list with their events
// zeroed so the pool does not pin closures or arg payloads for the GC.
func (w *timeWheel) gather(c int) {
	b := w.buf[:0]
	for n := w.heads[c]; n != nilNode; {
		nd := &w.nodes[n]
		b = append(b, nd.ev)
		nd.ev = schedEvent{}
		next := nd.next
		nd.next = w.free
		w.free = n
		n = next
	}
	w.heads[c] = nilNode
	w.bitmap[c>>6] &^= 1 << (c & 63)
	// The list is newest first; reversing restores scheduling order,
	// which is usually (at, seq) order already, the insertion sort's
	// best case.
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	sortSched(b)
	w.buf = b
}

// pop consumes the event peekUntil exposed, zeroing the vacated buffer
// element so it does not pin closures or arg payloads for the GC. Must
// be preceded by a peekUntil that returned an exact event.
func (w *timeWheel) pop() schedEvent {
	e := w.buf[w.pos]
	w.buf[w.pos] = schedEvent{}
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
