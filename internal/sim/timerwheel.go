// TimerWheel: a hashed timing wheel for bulk cancellable timeouts,
// layered on the simulator.
//
// The per-event timeout pattern — one scheduled event per outstanding
// request, firing as a no-op when the response won (the RPC client's
// path) — costs a heap/wheel entry and a dispatch per request even
// when nothing times out. At a million outstanding requests that is a
// million queued events doing nothing. The hashed wheel replaces them
// with ONE scheduled event per granularity tick: timers live in
// per-slot intrusive doubly-linked lists carved from a chunked slab,
// so Arm is a list append, Cancel an unlink (both O(1), both
// allocation-free once the slab is warm), and each tick fires only
// the due timers of one slot. Timers beyond one rotation stay in
// their slot and are revisited ("cascaded") once per rotation — the
// classic hashed-wheel trade: O(1) operations against a bounded
// inspection overhead of population/slots per tick.
//
// A slab entry is 40 bytes and holds no pointers: a wheel binds its
// few (callback, object) pairs once with Bind, each timer stores the
// 16-bit kind and one uint64 payload, and the fire path rebuilds
// Arg{Obj: obj, U0: payload}. The slab grows in fixed 4096-entry
// (160 KiB) chunks, so a million armed timers cost 40 MiB with at most
// one chunk of spare capacity, are never copied as the slab grows, and
// are invisible to the GC's mark phase.
//
// Determinism contract: a timer armed at time A with expiry E fires
// at T = ceil(E/gran)*gran — the first wheel tick at or after E — and
// timers sharing a tick fire in arm order (slot lists append, and
// rotation survivors keep their relative order). T depends only on E
// and the granularity, never on the population or on cancel history,
// so wheel-driven models stay byte-identical at any -j setting: each
// wheel is private to one simulator and its tick is an ordinary
// simulator event.
//
// Note the wheel path is NOT event-identical to per-event timeouts:
// expiries quantize to the granularity and cancels remove (rather
// than fire-and-noop) the timer, changing the simulator's event
// sequence. The churn client is wheel-native; the RPC client, with a
// few hundred attempts in flight, keeps one event per attempt.

package sim

import "math"

// TimerHandle identifies an armed timer for cancellation. The zero
// handle is never issued and is safe to cancel (a no-op). Handles are
// generation-tagged: a handle kept past its timer's fire or cancel
// stays invalid even after the slab slot is recycled.
type TimerHandle uint64

// TimerKind names one (callback, object) pair bound to a wheel by
// Bind. A timer stores its kind instead of the callback and its
// argument, which keeps slab entries pointer-free.
type TimerKind uint16

// timer slot states (wheelTimer.slot).
const (
	timerFree    = -1 // on the free list
	timerPending = -2 // unlinked by the current tick, fire imminent
)

// Slab geometry: entry i lives at chunks[i>>timerChunkShift][i&timerChunkMask].
// Chunks are fixed-size arrays, so the masked index needs no bounds
// check.
const (
	timerChunkShift = 12
	timerChunkLen   = 1 << timerChunkShift
	timerChunkMask  = timerChunkLen - 1
)

// wheelTimer is one slab entry: the absolute expiry, the payload
// handed back as Arg.U0, intrusive list links (next doubles as the
// free-list link) and the bound kind. No pointers, 40 bytes.
type wheelTimer struct {
	expiry Time
	u0     uint64
	next   int32
	prev   int32
	slot   int32 // owning wheel slot, or timerFree/timerPending
	gen    uint32
	kind   TimerKind
}

// timerBinding is one Bind registration.
type timerBinding struct {
	fn  ArgEvent
	obj any
}

// timerList is one wheel slot's intrusive list (indices into the
// slab; -1 empty).
type timerList struct {
	head, tail int32
}

// TimerWheelStats counts wheel activity for the observability
// registry.
type TimerWheelStats struct {
	Armed    uint64 // Arm calls
	Fired    uint64 // timers whose callback ran
	Canceled uint64 // live timers removed by Cancel
	Ticks    uint64 // tick events executed
	Cascades uint64 // timers inspected but kept for a later rotation
}

// TimerWheel is a hashed timing wheel. Construct with NewTimerWheel;
// not safe for concurrent use (one wheel per simulator).
type TimerWheel struct {
	s     *Simulator
	gran  Duration
	slots []timerList
	mask  uint64

	kinds  []timerBinding
	chunks []*[timerChunkLen]wheelTimer
	used   int32 // entries carved from the slab so far
	free   int32 // head of the free list threaded through next; -1 empty

	count  int
	cursor uint64 // absolute index of the next tick; tick time = cursor*gran
	armed  bool   // a tick event is scheduled
	stats  TimerWheelStats

	// due is the current tick's unlinked-but-unfired batch, reused
	// across ticks. Gen-tagged so a callback cancelling a later due
	// timer skips it instead of firing stale state.
	due []TimerHandle
}

// NewTimerWheel builds a wheel on s with the given slot granularity
// and slot count (rounded up to a power of two). One rotation spans
// gran*slots; timers beyond it cascade — still correct, just
// re-inspected once per rotation.
func NewTimerWheel(s *Simulator, gran Duration, slots int) *TimerWheel {
	if s == nil {
		panic("sim: timer wheel needs a simulator")
	}
	if gran <= 0 {
		panic("sim: timer wheel granularity must be positive")
	}
	if slots <= 0 {
		panic("sim: timer wheel needs slots")
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	w := &TimerWheel{s: s, gran: gran, slots: make([]timerList, n), mask: uint64(n - 1), free: -1}
	for i := range w.slots {
		w.slots[i] = timerList{head: -1, tail: -1}
	}
	return w
}

// Len returns the number of armed timers.
func (w *TimerWheel) Len() int { return w.count }

// Stats returns the activity counters.
func (w *TimerWheel) Stats() TimerWheelStats { return w.stats }

// Bind registers fn with obj and returns the kind that Arm takes: a
// timer of that kind fires fn(s, Arg{Obj: obj, U0: u0}). Bind once per
// handler at construction time, not per timer.
func (w *TimerWheel) Bind(fn ArgEvent, obj any) TimerKind {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	if len(w.kinds) > math.MaxUint16 {
		panic("sim: too many timer kinds")
	}
	w.kinds = append(w.kinds, timerBinding{fn: fn, obj: obj})
	return TimerKind(len(w.kinds) - 1)
}

// Arm schedules a timer of kind k with payload u0 to fire at the first
// wheel tick at or after now+d (d must be positive) and returns a
// handle for Cancel. O(1): a slab allocation off the free list and a
// list append.
func (w *TimerWheel) Arm(d Duration, k TimerKind, u0 uint64) TimerHandle {
	if d <= 0 {
		panic("sim: timer wheel delay must be positive")
	}
	if int(k) >= len(w.kinds) {
		panic("sim: timer kind not bound to this wheel")
	}
	expiry := w.s.Now().Add(d)
	// First tick at or after the expiry. expiry > now always (positive
	// delay), so this tick index is never behind the wheel cursor: the
	// cursor trails now by at most one granularity.
	tick := (uint64(expiry) + uint64(w.gran) - 1) / uint64(w.gran)
	if !w.armed {
		w.cursor = uint64(w.s.Now())/uint64(w.gran) + 1
		w.armed = true
		w.s.AtArgNamed(Time(w.cursor*uint64(w.gran)), "timer-wheel-tick", timerWheelTickEv, Arg{Obj: w})
	}
	i, tm := w.alloc()
	tm.expiry = expiry
	tm.u0 = u0
	tm.kind = k
	sl := &w.slots[tick&w.mask]
	tm.slot = int32(tick & w.mask)
	tm.next = -1
	tm.prev = sl.tail
	if sl.tail >= 0 {
		w.at(sl.tail).next = i
	} else {
		sl.head = i
	}
	sl.tail = i
	w.count++
	w.stats.Armed++
	return handleOf(i, tm.gen)
}

// Cancel disarms the timer identified by h, reporting whether it was
// still live (armed, or unlinked by the running tick but not yet
// fired). O(1): a list unlink and a free-list push. Stale handles —
// fired, already cancelled, or zero — return false.
func (w *TimerWheel) Cancel(h TimerHandle) bool {
	i := int32(h >> 32)
	if h == 0 || uint32(i) >= uint32(w.used) {
		return false
	}
	tm := w.at(i)
	if tm.gen != uint32(h) {
		return false
	}
	switch tm.slot {
	case timerFree:
		return false
	case timerPending:
		// Unlinked by the in-progress tick: count was already taken at
		// unlink; releasing bumps gen so the fire loop skips it.
		w.release(i, tm)
	default:
		w.unlink(tm)
		w.count--
		w.release(i, tm)
	}
	w.stats.Canceled++
	return true
}

// at returns slab entry i.
func (w *TimerWheel) at(i int32) *wheelTimer {
	return &w.chunks[i>>timerChunkShift][i&timerChunkMask]
}

// unlink removes slab entry tm from its slot list.
func (w *TimerWheel) unlink(tm *wheelTimer) {
	sl := &w.slots[tm.slot]
	if tm.prev >= 0 {
		w.at(tm.prev).next = tm.next
	} else {
		sl.head = tm.next
	}
	if tm.next >= 0 {
		w.at(tm.next).prev = tm.prev
	} else {
		sl.tail = tm.prev
	}
}

// alloc takes a slab entry off the free list, or carves the next one
// (amortized; never in steady state once the peak population has been
// seen). A new chunk is allocated whole, so carving never copies.
func (w *TimerWheel) alloc() (int32, *wheelTimer) {
	if i := w.free; i >= 0 {
		tm := w.at(i)
		w.free = tm.next
		return i, tm
	}
	i := w.used
	if int(i>>timerChunkShift) == len(w.chunks) {
		w.chunks = append(w.chunks, new([timerChunkLen]wheelTimer))
	}
	w.used++
	tm := w.at(i)
	tm.gen = 1
	return i, tm
}

// release recycles slab entry i (tm) onto the free list: the
// generation bump invalidates every outstanding handle to it.
func (w *TimerWheel) release(i int32, tm *wheelTimer) {
	tm.gen++
	if tm.gen == 0 { // keep handles non-zero after wrap
		tm.gen = 1
	}
	tm.slot = timerFree
	tm.next = w.free
	w.free = i
}

func handleOf(i int32, gen uint32) TimerHandle {
	return TimerHandle(uint64(uint32(i))<<32 | uint64(gen))
}

// timerWheelTickEv advances the wheel one slot: due timers (expiry at
// or before the tick time) are unlinked in arm order and fired;
// survivors cascade to the next rotation. The wheel reschedules its
// tick while timers remain and suspends when empty — an idle wheel
// costs the simulator nothing.
func timerWheelTickEv(s *Simulator, a Arg) {
	a.Obj.(*TimerWheel).tick(s)
}

func (w *TimerWheel) tick(s *Simulator) {
	t := Time(w.cursor * uint64(w.gran))
	sl := &w.slots[w.cursor&w.mask]
	w.stats.Ticks++

	// Phase 1: unlink the due batch. Collect-then-fire keeps the walk
	// safe against callbacks that arm into (or cancel from) this same
	// slot mid-tick.
	w.due = w.due[:0]
	for i := sl.head; i >= 0; {
		tm := w.at(i)
		next := tm.next
		if tm.expiry <= t {
			w.unlink(tm)
			tm.slot = timerPending
			w.count--
			w.due = append(w.due, handleOf(i, tm.gen))
		} else {
			w.stats.Cascades++
		}
		i = next
	}
	// Phase 2: fire in arm order. A due timer cancelled by an earlier
	// callback in this batch has a bumped generation and is skipped.
	for _, h := range w.due {
		i := int32(h >> 32)
		tm := w.at(i)
		if tm.gen != uint32(h) {
			continue
		}
		b, u0 := w.kinds[tm.kind], tm.u0
		w.release(i, tm)
		w.stats.Fired++
		b.fn(s, Arg{Obj: b.obj, U0: u0})
	}
	w.cursor++
	if w.count > 0 {
		s.AtArgNamed(Time(w.cursor*uint64(w.gran)), "timer-wheel-tick", timerWheelTickEv, Arg{Obj: w})
	} else {
		w.armed = false
	}
}
