// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is kept in integer picoseconds so that a 3 GHz CPU cycle (333⅓ ps)
// and cache latencies expressed in core cycles convert without rounding
// drift accumulating across billions of events. Events scheduled for the
// same instant fire in FIFO order of scheduling, which keeps runs
// reproducible regardless of map iteration or goroutine scheduling.
package sim

import (
	"fmt"
	"math"
)

// Time is an absolute simulation timestamp in picoseconds.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel Time later than any reachable simulation instant.
const Never Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Microseconds reports t as a float64 count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports d as a float64 count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds reports d as a float64 count of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Microseconds()) }

// Clock converts between core cycles and simulated time for a fixed
// frequency. It is shared by every component that reasons in cycles.
type Clock struct {
	freqHz int64 // e.g. 3e9
}

// NewClock returns a clock for the given frequency in Hz.
func NewClock(freqHz int64) Clock {
	if freqHz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	return Clock{freqHz: freqHz}
}

// FreqHz returns the clock frequency in Hz.
func (c Clock) FreqHz() int64 { return c.freqHz }

// Cycles converts a cycle count to a duration. The conversion rounds to
// the nearest picosecond; at 3 GHz one cycle is 333 ps. The computation
// is split so that n*Second never overflows int64 even for cycle counts
// in the billions.
func (c Clock) Cycles(n int64) Duration {
	q, r := n/c.freqHz, n%c.freqHz
	whole := Duration(q * int64(Second))
	psPerCycle := int64(Second) / c.freqHz
	rem := int64(Second) % c.freqHz
	frac := Duration(r*psPerCycle + (r*rem+c.freqHz/2)/c.freqHz)
	return whole + frac
}

// ToCycles converts a duration to a (possibly fractional) cycle count.
func (c Clock) ToCycles(d Duration) float64 {
	return float64(d) * float64(c.freqHz) / float64(Second)
}

// Event is a scheduled callback. The callback receives the simulator so
// that handlers can schedule follow-up work.
type Event func(s *Simulator)

// Arg is the inline payload of an argful event (see ArgEvent). Hot
// paths that would otherwise capture per-packet state in a fresh
// closure — a NIC and a TLP, a slot and a core index — put it here and
// schedule a package-level handler instead: storing pointers in the
// any fields and integers in U0/U1/I0 allocates nothing, whereas every
// capturing closure is a fresh heap object. The fields are generic on
// purpose; each scheduling site documents its own convention.
type Arg struct {
	Obj  any // primary object (component pointer)
	Obj2 any // secondary object (packet, slot, ...)
	U0   uint64
	U1   uint64
	I0   int
}

// ArgEvent is a scheduled callback carrying an inline Arg payload.
// Handlers meant for the steady-state path must be package-level
// functions (or otherwise pre-allocated), so that scheduling one is
// allocation-free.
type ArgEvent func(s *Simulator, arg Arg)

// schedEvent is one queued callback. Events are stored by value inside
// the queue's backing array (which doubles as the slab), so steady-state
// scheduling performs no per-event heap allocation. Diagnostic names
// passed to AtNamed are used at schedule time only and deliberately not
// stored — a figure run processes ~10M events and the names would cost
// 16 bytes each for a string nobody reads after the push. Exactly one
// of fn/afn is set. An argful event's payload lives in the simulator's
// arg slab, not here: heap sifts copy every element they touch, and
// keeping the element at 40 bytes instead of 88 (Arg is 56 bytes) is
// worth the one extra indexed load at dispatch.
type schedEvent struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among same-time events
	fn  Event
	afn ArgEvent
	arg int32 // index into Simulator.args; valid only when afn != nil
}

// lessEv orders events by (time, scheduling order). The order is total
// (seq is unique), so any correct heap pops the exact same sequence —
// which is what keeps runs reproducible.
func lessEv(a, b schedEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of schedEvent values. Compared to
// container/heap over boxed pointers this removes the per-event
// allocation, the interface{} round trips, and half the comparison
// depth: a 4-ary heap is log4(n) levels deep, and the extra sibling
// comparisons per level are cheap because all four children share one
// cache line's worth of adjacent slots.
type eventQueue []schedEvent

// push inserts e, sifting it up with a hole instead of pairwise swaps.
func (q *eventQueue) push(e schedEvent) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !lessEv(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() schedEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = schedEvent{} // release the closure reference for GC
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for k := c + 1; k < end; k++ {
				if lessEv(h[k], h[m]) {
					m = k
				}
			}
			if !lessEv(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	*q = h
	return top
}

// WatchdogConfig bounds a run so that a buggy model (or an injected
// fault storm) produces a structured abort instead of a hang. Zero
// fields disable the corresponding check.
type WatchdogConfig struct {
	// MaxEventsPerInstant trips the "no-progress" detector: if more
	// than this many consecutive events execute without simulated time
	// advancing, the run is stuck in a zero-delay loop.
	MaxEventsPerInstant uint64
	// MaxPendingEvents trips the "event-storm" detector: a queue that
	// grows past this bound means events are being scheduled faster
	// than they drain (unbounded fan-out).
	MaxPendingEvents int
	// MaxProcessedEvents bounds the total events of one RunUntil call
	// (a hard budget for unattended runs).
	MaxProcessedEvents uint64
}

// DefaultWatchdogConfig returns bounds generous enough for every
// workload in this repo (the heaviest figure runs execute ~10M events
// with queues in the tens of thousands) while still catching
// zero-delay livelocks and runaway scheduling within seconds.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		MaxEventsPerInstant: 10_000_000,
		MaxPendingEvents:    50_000_000,
		MaxProcessedEvents:  0, // unbounded by default
	}
}

// WatchdogError is the structured abort produced when a watchdog
// bound is exceeded.
type WatchdogError struct {
	// Kind is "no-progress", "event-storm", or "event-budget".
	Kind string
	// At is the simulated instant the watchdog tripped.
	At Time
	// Events is the count that exceeded the bound (same-instant events
	// for no-progress, total processed for event-budget).
	Events uint64
	// Pending is the queue length at the trip point.
	Pending int
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog %s at %v (events=%d pending=%d)",
		e.Kind, e.At, e.Events, e.Pending)
}

// Simulator owns the event queues and the current simulated time.
// The zero value is not usable; construct with New.
//
// Scheduling is two-level: a time wheel (wheel.go) absorbs the dense
// short-horizon bulk — per-packet DMA, service, poll and link events —
// with O(1) insertion, while the 4-ary heap keeps sparse long-horizon
// timers and the wheel's refusals. Dispatch merges the two by
// (at, seq), so the executed sequence is identical to a single heap's.
//
// Dispatch is one bounded drain (drain): RunUntil runs it with the
// bound (horizon, MaxUint64), and a fused handler or a cursor group
// whose continuation is preceded by other events runs it in place,
// under the continuation's own key, before carrying on (see reach).
type Simulator struct {
	now       Time
	seq       uint64
	heap      eventQueue
	wheel     timeWheel
	processed uint64
	runStart  uint64 // processed at RunUntil entry: the event budget's base
	stopped   bool

	// curSeq is the seq of the event currently being dispatched (or of
	// the key reach last made current).
	curSeq uint64

	// boundAt/boundSeq is the (at, seq) key of the innermost active
	// drain: only events ordering strictly before it may run. RunUntil
	// sets (horizon, MaxUint64); each in-place drain narrows it to the
	// key of the continuation it suspends, which is logically the next
	// pending event. depth counts the in-place drains on the stack.
	boundAt  Time
	boundSeq uint64
	depth    int

	// nextAt/nextSeq cache the key of the scheduler head: fused
	// handlers and cursor groups probe it between every step (reach),
	// and the cache turns those probes into two
	// comparisons. enqueue keeps the cache exact (a smaller arrival
	// replaces it, tagged with the queue that accepted it); every pop
	// resets it to the trivial lower bound (staleHead). nextSrc records
	// where the cached head lives so the pop needn't re-derive it (see
	// the src* constants).
	nextAt  Time
	nextSeq uint64
	nextSrc uint8

	wd          WatchdogConfig
	wdEnabled   bool
	wdErr       *WatchdogError
	sameInstant uint64 // consecutive events at the current instant

	// args is the payload slab for argful events: slots are handed out
	// at schedule time and recycled through argFree at dispatch, so the
	// steady state reuses a fixed working set and the heap elements stay
	// small (see schedEvent.arg).
	args    []Arg
	argFree []int32

	// reserved lists the seq blocks handed out by ReserveSeqs, in
	// ascending order with contiguous blocks merged; AtArgSeq accepts
	// only seqs inside one of them.
	reserved []seqBlock

	// spills counts events the wheel refused to the heap; the kernel's
	// differential tests compare it across dispatch styles.
	spills uint64
}

// seqBlock is the inclusive seq range [lo, hi] of one reservation.
type seqBlock struct{ lo, hi uint64 }

// putArg stores an argful payload in the slab and returns its slot.
func (s *Simulator) putArg(a Arg) int32 {
	if n := len(s.argFree); n > 0 {
		i := s.argFree[n-1]
		s.argFree = s.argFree[:n-1]
		s.args[i] = a
		return i
	}
	s.args = append(s.args, a)
	return int32(len(s.args) - 1)
}

// takeArg removes and returns the payload in slot i, recycling the slot.
func (s *Simulator) takeArg(i int32) Arg {
	a := s.args[i]
	s.args[i] = Arg{} // release the object references for GC
	s.argFree = append(s.argFree, i)
	return a
}

// New returns an empty simulator positioned at time zero.
func New() *Simulator {
	return &Simulator{boundAt: Never, boundSeq: math.MaxUint64, nextAt: staleHead, wheel: newTimeWheel()}
}

// Sources of the cached scheduler head (Simulator.nextSrc).
const (
	// srcLower: the cached key is only a lower bound on every pending
	// event's key, to be resolved by refreshNext once a query reaches
	// it. After a pop it is the trivial bound (staleHead); after
	// peekUntil kept the cursor from a slot, it is that slot's start
	// with seq 0.
	srcLower    = iota
	srcNone     // no pending events; the key is (Never, MaxUint64)
	srcHeap     // head is heap[0]
	srcWheel    // head is at the wheel cursor (peeked)
	srcWheelRaw // head is in the wheel, cursor not yet there
)

// staleHead is the cached key of a cache that must be recomputed.
const staleHead = Time(math.MinInt64)

// maxNest bounds how many in-place drains may be suspended on the
// stack at once; a continuation refused at the limit is filed instead.
const maxNest = 4

// keyLess orders two (at, seq) keys.
func keyLess(at Time, seq uint64, bAt Time, bSeq uint64) bool {
	return at < bAt || (at == bAt && seq < bSeq)
}

// enqueue files one event into the two-level scheduler: the wheel when
// it can hold it, the heap otherwise (past-cursor or far-future
// spills). An empty wheel whose window has fallen behind now (its
// cursor only moves when it yields an event, so a stretch served from
// the heap leaves it behind) is moved to now's slot first.
func (s *Simulator) enqueue(e schedEvent) {
	inWheel := s.wheel.push(e)
	if !inWheel && s.wheel.count == 0 && s.wheel.rebase(s.now) {
		inWheel = s.wheel.push(e)
	}
	if !inWheel {
		s.heap.push(e)
		s.spills++
	}
	if keyLess(e.at, e.seq, s.nextAt, s.nextSeq) {
		s.nextAt, s.nextSeq = e.at, e.seq
		if inWheel {
			s.nextSrc = srcWheelRaw
		} else {
			s.nextSrc = srcHeap
		}
	}
}

// refreshNext recomputes the cached head of the two queues by
// (at, seq), without moving the wheel cursor to a slot starting after
// limit or after the heap head (see peekUntil and srcLower): the
// cursor never runs past the instant being asked about, nor past the
// event that will be popped first. The cache stays valid until the
// next pop; a cheaper arrival refreshes it in enqueue, so the cache is
// exact — or, for srcLower, a lower bound that only a query reaching
// past it needs to resolve. An enqueue-cached wheel head (srcWheelRaw)
// is safe even though the cursor hasn't visited it: anything smaller
// would have been refused by the wheel (behind the cursor) and cached
// from the heap instead.
func (s *Simulator) refreshNext(limit Time) {
	if len(s.heap) > 0 && s.heap[0].at < limit {
		limit = s.heap[0].at
	}
	at, seq, exact, wok := s.wheel.peekUntil(limit)
	src := srcNone
	if wok {
		src = srcWheel
		if !exact {
			src = srcLower
		}
	} else {
		at, seq = Never, math.MaxUint64
	}
	if len(s.heap) > 0 && keyLess(s.heap[0].at, s.heap[0].seq, at, seq) {
		at, seq, src = s.heap[0].at, s.heap[0].seq, srcHeap
	}
	s.nextAt, s.nextSeq, s.nextSrc = at, seq, uint8(src)
}

// resolveHead makes the cached head key exact enough to compare with
// any key at time at: it refreshes the cache only when it holds a
// lower bound (srcLower) that such a key could reach.
func (s *Simulator) resolveHead(at Time) {
	if s.nextSrc == srcLower && s.nextAt <= at {
		s.refreshNext(at)
	}
}

// headBefore reports whether a pending event orders before the key
// (at, seq).
func (s *Simulator) headBefore(at Time, seq uint64) bool {
	s.resolveHead(at)
	return keyLess(s.nextAt, s.nextSeq, at, seq)
}

// popHead consumes and returns the head event; headBefore must just
// have reported one.
func (s *Simulator) popHead() schedEvent {
	src := s.nextSrc
	s.nextAt, s.nextSeq, s.nextSrc = staleHead, 0, srcLower
	if src == srcHeap {
		return s.heap.pop()
	}
	if src == srcWheelRaw {
		// Position the wheel cursor on its head — which is the cached
		// one, since anything smaller was diverted to the heap.
		s.wheel.peekUntil(Never)
	}
	return s.wheel.pop()
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the number of events currently queued.
func (s *Simulator) Pending() int { return len(s.heap) + s.wheel.count }

// At schedules fn to run at absolute time at. Scheduling into the past
// panics: it would silently reorder causality.
func (s *Simulator) At(at Time, fn Event) {
	s.AtNamed(at, "", fn)
}

// AtNamed is At with a diagnostic label used in panic messages. The
// label is consumed at schedule time only; it is not retained in the
// queue (see schedEvent), so naming events costs nothing on the hot
// path.
func (s *Simulator) AtNamed(at Time, name string, fn Event) {
	if at < s.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, at, s.now))
	}
	if fn == nil {
		panic("sim: nil event")
	}
	s.seq++
	s.enqueue(schedEvent{at: at, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current time.
func (s *Simulator) After(d Duration, fn Event) {
	if d < 0 {
		panic("sim: negative delay")
	}
	s.At(s.now.Add(d), fn)
}

// AtArgNamed schedules an argful event at absolute time at. It is the
// allocation-free twin of AtNamed: fn should be a package-level
// handler and arg its inline payload, so nothing escapes to the heap.
// Ordering is shared with plain events — both draw from the same seq
// counter, so interleaving At and AtArgNamed calls preserves FIFO
// order among same-time events exactly as before.
func (s *Simulator) AtArgNamed(at Time, name string, fn ArgEvent, arg Arg) {
	if at < s.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, at, s.now))
	}
	if fn == nil {
		panic("sim: nil event")
	}
	s.seq++
	s.enqueue(schedEvent{at: at, seq: s.seq, afn: fn, arg: s.putArg(arg)})
}

// NextSeq draws a fresh ordering seq: the one an event scheduled now
// would get. A cursor keyed with it (Cursor.Set) orders among all other
// events exactly as that event would.
func (s *Simulator) NextSeq() uint64 {
	s.seq++
	return s.seq
}

// ReserveSeqs reserves a block of n consecutive ordering seqs and
// returns the first; the block is [first, first+n). It consumes the
// seq counter exactly as n AtArgNamed calls would, so events filed
// later under these seqs with AtArgSeq order among all other events
// precisely as if they had been scheduled right now. This is what lets
// a generator with a known arrival schedule keep one pending event per
// stream instead of pre-scheduling every arrival: each event files its
// successor under the successor's reserved seq, and the scheduler
// still executes the same (at, seq) total order.
func (s *Simulator) ReserveSeqs(n uint64) uint64 {
	first := s.seq + 1
	if n == 0 {
		return first
	}
	s.seq += n
	if k := len(s.reserved); k > 0 && s.reserved[k-1].hi+1 == first {
		s.reserved[k-1].hi = s.seq
	} else {
		s.reserved = append(s.reserved, seqBlock{lo: first, hi: s.seq})
	}
	return first
}

// AtArgSeq files an argful event at time at under a seq previously
// handed out by ReserveSeqs. It panics on a seq outside every reserved
// block or on a time before now. Each reserved seq is meant to be used
// once; the caller owns that discipline, as it owns the schedule.
func (s *Simulator) AtArgSeq(at Time, seq uint64, fn ArgEvent, arg Arg) {
	if at < s.now {
		panic(fmt.Sprintf("sim: reserved-seq event %d scheduled at %v before now %v", seq, at, s.now))
	}
	if fn == nil {
		panic("sim: nil event")
	}
	if !s.isReserved(seq) {
		panic(fmt.Sprintf("sim: seq %d was not reserved", seq))
	}
	s.enqueue(schedEvent{at: at, seq: seq, afn: fn, arg: s.putArg(arg)})
}

// isReserved reports whether seq lies in a ReserveSeqs block.
func (s *Simulator) isReserved(seq uint64) bool {
	lo, hi := 0, len(s.reserved)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.reserved[m].hi < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(s.reserved) && s.reserved[lo].lo <= seq
}

// FuseAtArg runs work that would otherwise be the fresh event
// AtArgNamed(t, fn, arg) inline. It draws that event's seq first, so
// every event it dispatches in place orders before it and every event
// scheduled meanwhile after it; the continuation's key is (t, drawn
// seq). When pending events order before that key, they are dispatched
// in place — inside the caller, under the key as the drain's bound — so
// they run exactly when they would have run had the event been filed
// and popped in turn. It returns true when the caller may carry on at
// t as that event (the clock then reads t). It returns false, having
// filed fn at the key with a copy of *arg, when the key does not
// precede the active bound, the nesting limit is reached, or the run
// stopped (Stop or a watchdog) during the in-place drain; the caller
// must then return. Either way the executed (at, seq) order is the one
// the filed event would produce. arg is read only when filing, so
// callers pass the address of a local payload and nothing escapes.
func (s *Simulator) FuseAtArg(t Time, fn ArgEvent, arg *Arg) bool {
	if fn == nil {
		panic("sim: nil event")
	}
	s.seq++
	return s.resume(t, s.seq, nil, fn, arg)
}

// FuseAfter is FuseAtArg for the plain event After(d, fn).
func (s *Simulator) FuseAfter(d Duration, fn Event) bool {
	if d < 0 {
		panic("sim: negative delay")
	}
	if fn == nil {
		panic("sim: nil event")
	}
	s.seq++
	return s.resume(s.now.Add(d), s.seq, fn, nil, nil)
}

// resume implements FuseAtArg and FuseAfter for the continuation key
// (t, seq): reach it, or file the continuation under it. Exactly one of
// fn/afn is set, and arg is afn's payload.
func (s *Simulator) resume(t Time, seq uint64, fn Event, afn ArgEvent, arg *Arg) bool {
	if s.reach(t, seq) {
		return true
	}
	e := schedEvent{at: t, seq: seq, fn: fn, afn: afn}
	if afn != nil {
		e.arg = s.putArg(*arg)
	}
	s.enqueue(e)
	return false
}

// next is reach's fast path: when the key (t, seq) orders before the
// cached scheduler head — exact or a lower bound, either way before
// every pending event — and before the active bound, nothing needs to
// run first, so it makes the key current and reports true. Otherwise
// it changes nothing and reports false.
func (s *Simulator) next(t Time, seq uint64) bool {
	if s.stopped || t < s.now ||
		!keyLess(t, seq, s.nextAt, s.nextSeq) || !keyLess(t, seq, s.boundAt, s.boundSeq) {
		return false
	}
	if t > s.now {
		s.now = t
		s.sameInstant = 0
	}
	s.curSeq = seq
	return true
}

// reach makes the key (t, seq) the one being dispatched: it runs in
// place every pending event that orders before the key, then advances
// the clock to t and reports true. It reports false, leaving the key
// for the caller to file, when the key does not precede the active
// bound, the nesting limit is reached, or the run stops during the
// in-place drain. Fused handlers (resume) and cursor groups (Group.run)
// both continue through it.
func (s *Simulator) reach(t Time, seq uint64) bool {
	if t < s.now {
		panic(fmt.Sprintf("sim: continuation at %v before now %v", t, s.now))
	}
	if s.stopped || !keyLess(t, seq, s.boundAt, s.boundSeq) {
		return false
	}
	s.resolveHead(t)
	if keyLess(s.nextAt, s.nextSeq, t, seq) {
		if s.depth >= maxNest {
			return false
		}
		bAt, bSeq := s.boundAt, s.boundSeq
		s.boundAt, s.boundSeq = t, seq
		s.depth++
		ok := s.drain(t, seq)
		s.depth--
		s.boundAt, s.boundSeq = bAt, bSeq
		if !ok {
			return false
		}
	}
	if t > s.now {
		s.now = t
		s.sameInstant = 0
	}
	s.curSeq = seq
	return true
}

// absorb consumes, without dispatching it, the pending event filed at
// exactly the key (t, seq), which reach has just made current: the
// caller runs as that event instead.
func (s *Simulator) absorb(t Time, seq uint64) {
	s.resolveHead(t)
	if s.nextAt != t || s.nextSeq != seq {
		panic(fmt.Sprintf("sim: no pending event at the key (%v, %d) to absorb", t, seq))
	}
	s.popHead()
}

// AfterArg schedules an argful event d after the current time.
func (s *Simulator) AfterArg(d Duration, fn ArgEvent, arg Arg) {
	if d < 0 {
		panic("sim: negative delay")
	}
	s.AtArgNamed(s.now.Add(d), "", fn, arg)
}

// Every schedules fn to run at a fixed period, starting at start. The
// task reschedules itself forever; RunUntil simply leaves the next
// tick queued when it lies past the horizon, so periodic tasks survive
// segmented runs (RunUntil called repeatedly). Periodic tasks drive
// the IDIO controller's 1 µs and 8192 µs control-plane loops. A
// simulation with periodic tasks must be driven with RunUntil, not
// Run.
//
// One closure is allocated here and reused for every tick: each
// reschedule passes the same func value back to At, so the periodic
// steady state performs no per-tick allocation.
func (s *Simulator) Every(start Time, period Duration, fn Event) {
	if period <= 0 {
		panic("sim: non-positive period")
	}
	var tick Event
	tick = func(sm *Simulator) {
		fn(sm)
		sm.At(sm.now.Add(period), tick)
	}
	s.At(start, tick)
}

// Stop halts the run loop after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// SetWatchdog installs (or, with a zero config, removes) run-loop
// bounds. The watchdog converts hangs — zero-delay event loops,
// unbounded event fan-out — into a structured abort retrievable via
// Err after RunUntil returns.
func (s *Simulator) SetWatchdog(cfg WatchdogConfig) {
	s.wd = cfg
	s.wdEnabled = cfg.MaxEventsPerInstant > 0 || cfg.MaxPendingEvents > 0 || cfg.MaxProcessedEvents > 0
}

// Err reports the watchdog abort of the most recent run, or nil when
// the run ended normally.
func (s *Simulator) Err() error {
	if s.wdErr == nil {
		return nil // typed-nil guard: never wrap a nil *WatchdogError
	}
	return s.wdErr
}

// checkWatchdog enforces the configured bounds after one event; a trip
// records the error and stops the loop. The first trip stands: the
// checks of handlers suspended around an in-place drain that tripped
// run after it and would only restate it.
func (s *Simulator) checkWatchdog() {
	if s.wdErr != nil {
		return
	}
	start := s.runStart
	if s.wd.MaxEventsPerInstant > 0 && s.sameInstant > s.wd.MaxEventsPerInstant {
		s.wdErr = &WatchdogError{Kind: "no-progress", At: s.now, Events: s.sameInstant, Pending: s.Pending()}
		s.stopped = true
		return
	}
	if s.wd.MaxPendingEvents > 0 && s.Pending() > s.wd.MaxPendingEvents {
		s.wdErr = &WatchdogError{Kind: "event-storm", At: s.now, Events: s.processed - start, Pending: s.Pending()}
		s.stopped = true
		return
	}
	if s.wd.MaxProcessedEvents > 0 && s.processed-start > s.wd.MaxProcessedEvents {
		s.wdErr = &WatchdogError{Kind: "event-budget", At: s.now, Events: s.processed - start, Pending: s.Pending()}
		s.stopped = true
	}
}

// RunUntil executes events in timestamp order until the queue is empty
// or the next event is later than horizon. It returns the number of
// events executed.
func (s *Simulator) RunUntil(horizon Time) uint64 {
	s.boundAt, s.boundSeq = horizon, math.MaxUint64
	s.stopped = false
	s.wdErr = nil
	s.runStart = s.processed
	s.drain(horizon, math.MaxUint64)
	// Advance the clock to the horizon even if the queue drained early,
	// so rate computations over [0, horizon] are well defined.
	if !s.stopped && s.now < horizon && horizon != Never {
		s.now = horizon
	}
	return s.processed - s.runStart
}

// RunCheckpoints is the run loop of every host and cluster: it
// advances s from the checkpoint grid position from to horizon in
// slices ending at the multiples of step, and returns where it
// stopped. After every slice it returns the watchdog's abort, if any
// (RunUntil resets it on entry, so a trip must be caught before the
// next slice), and then stops at the first slice end where idle, when
// non-nil, reports true. A slice end the clock has already passed
// costs only those checks. step <= 0 runs to horizon in one slice.
func (s *Simulator) RunCheckpoints(from, horizon Time, step Duration, idle func() bool) (Time, error) {
	for from < horizon {
		next := horizon
		if step > 0 {
			next = min(next, (from/Time(step)+1)*Time(step))
		}
		s.RunUntil(next)
		from = next
		if err := s.Err(); err != nil {
			return from, err
		}
		if idle != nil && step > 0 && next%Time(step) == 0 && idle() {
			return from, nil
		}
	}
	return from, nil
}

// drain is the dispatch loop: it executes pending events in (at, seq)
// order while they order before the bound (at, seq). It reports true
// once the head no longer does, false when the run stopped first.
// RunUntil drains to (horizon, MaxUint64); resume drains in place to a
// suspended continuation's key, re-entering this same loop.
func (s *Simulator) drain(at Time, seq uint64) bool {
	for !s.stopped {
		s.resolveHead(at)
		if !keyLess(s.nextAt, s.nextSeq, at, seq) {
			return true
		}
		next := s.popHead()
		if next.at > s.now {
			s.sameInstant = 0
		}
		s.now = next.at
		s.processed++
		s.sameInstant++
		s.curSeq = next.seq
		if next.afn != nil {
			next.afn(s, s.takeArg(next.arg))
		} else {
			next.fn(s)
		}
		if s.wdEnabled {
			s.checkWatchdog()
		}
	}
	return false
}

// Run executes until the event queue is empty.
func (s *Simulator) Run() uint64 { return s.RunUntil(Never) }
