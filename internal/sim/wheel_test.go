package sim

// Property tests for the two-level scheduler: the time wheel plus the
// 4-ary spill heap, merged by enqueue/popHead, must pop the exact
// (at, seq) sequence a single reference heap would — that equivalence
// is what makes the wheel invisible to every replay and golden test.
// These extend TestEventQueueHeapOrder (bench_test.go), which checks
// the heap alone.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestTwoLevelVsHeapProperty drives randomized (at, seq) streams
// through the two-level scheduler and a reference single heap in
// lockstep and asserts both pop identical sequences. The stream mix is
// chosen to hit every wheel path: same-instant ties (duplicate at,
// distinct seq), dense bursts into one wheel slot (long slot lists),
// arrivals into the sorted cursor slot (in-order tail
// insertion), events beyond one wheel rotation (far-future spills),
// and interleaved pops that march the cursor across slot and rotation
// boundaries. Millions of events in the default mode; -short trims
// the stream, not the mix.
func TestTwoLevelVsHeapProperty(t *testing.T) {
	total := 2_000_000
	if testing.Short() {
		total = 200_000
	}
	rng := rand.New(rand.NewSource(1234))
	s := New()
	var ref eventQueue
	fn := func(*Simulator) {}

	var seq uint64
	var vnow Time // at of the last popped event: the causality floor
	var lastAt Time
	pending, pushed := 0, 0
	push := func(at Time) {
		seq++
		e := schedEvent{at: at, seq: seq, fn: fn}
		s.enqueue(e)
		ref.push(e)
		lastAt = at
		pending++
		pushed++
	}

	for pushed < total || pending > 0 {
		if pushed < total {
			burst := rng.Intn(32) + 1
			for i := 0; i < burst && pushed < total; i++ {
				switch r := rng.Intn(100); {
				case r < 10:
					// Same instant as the event being dispatched.
					push(vnow)
				case r < 20 && lastAt >= vnow:
					// Exact duplicate of the previous at: a seq-only tie.
					push(lastAt)
				case r < 35:
					// Dense burst into the cursor's own slot — a long
					// list to gather, and sorted-tail insertions.
					push(vnow.Add(Duration(rng.Int63n(int64(wheelGran)))))
				case r < 90:
					// Anywhere within the wheel's rotation.
					push(vnow.Add(Duration(rng.Int63n(int64(wheelSpan)))))
				default:
					// Beyond one rotation: must divert to the heap (an
					// aliased wheel slot would fire a rotation early).
					push(vnow.Add(Duration(wheelSpan) + Duration(rng.Int63n(int64(10*wheelSpan)))))
				}
			}
		}
		k := rng.Intn(8) + 1
		if pushed >= total {
			k = pending
		}
		for i := 0; i < k && pending > 0; i++ {
			if !s.headBefore(Never, math.MaxUint64) {
				t.Fatalf("two-level scheduler empty with %d events pending", pending)
			}
			got := s.popHead()
			want := ref.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("after %d pops: two-level popped (at=%d seq=%d), reference heap (at=%d seq=%d)",
					pushed-pending, got.at, got.seq, want.at, want.seq)
			}
			vnow = got.at
			pending--
		}
	}
	if s.Pending() != 0 || len(ref) != 0 {
		t.Fatalf("drained scheduler still pending: two-level=%d ref=%d", s.Pending(), len(ref))
	}
}

// TestTwoLevelFacadeOrder repeats the cross-check through the public
// facade (AtArgNamed + RunUntil) rather than the raw queue API: events
// carry their identity in the Arg payload and the executed order must
// be the (at, seq)-sorted order, i.e. nondecreasing at with FIFO among
// equal times.
func TestTwoLevelFacadeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	s := New()
	type rec struct {
		at Time
		id uint64
	}
	var fired []rec
	record := func(sm *Simulator, a Arg) {
		fired = append(fired, rec{at: sm.Now(), id: a.U0})
	}
	const total = 50_000
	var id uint64
	var schedule ArgEvent
	schedule = func(sm *Simulator, _ Arg) {
		// Schedule a burst from inside a running event — the regime
		// where arrivals land in the sorted cursor slot.
		for i := 0; i < 16 && id < total; i++ {
			off := Duration(rng.Int63n(int64(2 * wheelSpan)))
			sm.AtArgNamed(sm.Now().Add(off), "rec", record, Arg{U0: id})
			id++
		}
		if id < total {
			sm.AfterArg(Duration(rng.Int63n(int64(wheelGran*4)))+1, schedule, Arg{})
		}
	}
	s.AtArgNamed(0, "seed", schedule, Arg{})
	s.Run()
	if len(fired) != total {
		t.Fatalf("fired %d of %d events", len(fired), total)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatalf("event %d fired at %v after %v", i, fired[i].at, fired[i-1].at)
		}
	}
}

// TestEventStormNoRetention is the GC-leak regression guard for the
// scheduler's retention surfaces: the arg slab, the heap's backing
// array, and the wheel's node pool and cursor buffer. It schedules and drains
// a million argful events (the wheel cursor wraps its rotation dozens
// of times, the heap churns through far-future spills) and then
// asserts that every released slot was zeroed — a stale schedEvent or
// Arg left in a backing array would pin its closure/object graph for
// the life of the simulator, the leak class this test exists to catch.
func TestEventStormNoRetention(t *testing.T) {
	s := New()
	var fired uint64
	count := func(*Simulator, Arg) { fired++ }
	rng := rand.New(rand.NewSource(99))
	const total = 1_000_000
	const wave = 4096
	scheduled := 0
	for scheduled < total {
		base := s.Now()
		for i := 0; i < wave && scheduled < total; i++ {
			var off Duration
			if rng.Intn(10) == 0 {
				off = Duration(wheelSpan) + Duration(rng.Int63n(int64(4*wheelSpan)))
			} else {
				off = Duration(rng.Int63n(int64(wheelSpan)))
			}
			s.AtArgNamed(base.Add(off), "storm", count, Arg{U0: uint64(scheduled)})
			scheduled++
		}
		s.Run()
	}
	if fired != total {
		t.Fatalf("fired %d of %d events", fired, total)
	}

	// Arg slab: every slot recycled and zeroed, and the slab's
	// high-water mark tracks the peak pending population (one wave),
	// not the total event count — growth past that is a leak.
	if len(s.argFree) != len(s.args) {
		t.Errorf("arg slab: %d slots but only %d free after drain", len(s.args), len(s.argFree))
	}
	for i, a := range s.args {
		if a != (Arg{}) {
			t.Errorf("arg slab slot %d retains payload %+v after drain", i, a)
		}
	}
	if len(s.args) > wave+64 {
		t.Errorf("arg slab high-water %d exceeds the %d-event wave population", len(s.args), wave)
	}

	// Heap: drained, and the backing array's released slots zeroed.
	if len(s.heap) != 0 {
		t.Fatalf("heap not drained: %d left", len(s.heap))
	}
	for i, e := range s.heap[:cap(s.heap)] {
		if e.fn != nil || e.afn != nil || e.at != 0 || e.seq != 0 || e.arg != 0 {
			t.Errorf("heap backing slot %d retains event (at=%d seq=%d) after drain", i, e.at, e.seq)
		}
	}

	// Wheel: drained, every pool node back on the free list with its
	// event zeroed (gather zeroes each node it unlinks), and the cursor
	// buffer's full capacity zeroed (pop zeroes each consumed element).
	w := &s.wheel
	if w.count != 0 {
		t.Fatalf("wheel not drained: count=%d", w.count)
	}
	for si, h := range w.heads {
		if h != nilNode {
			t.Fatalf("wheel slot %d still heads node %d after drain", si, h)
		}
	}
	free := 0
	for n := w.free; n != nilNode; n = w.nodes[n].next {
		free++
		if free > len(w.nodes) {
			t.Fatal("wheel free list cycles")
		}
	}
	if free != len(w.nodes) {
		t.Errorf("wheel pool: %d nodes but only %d free after drain", len(w.nodes), free)
	}
	for i, nd := range w.nodes {
		if e := nd.ev; e.fn != nil || e.afn != nil || e.at != 0 || e.seq != 0 || e.arg != 0 {
			t.Errorf("wheel pool node %d retains event (at=%d seq=%d) after drain", i, e.at, e.seq)
		}
	}
	for k, e := range w.buf[:cap(w.buf)] {
		if e.fn != nil || e.afn != nil || e.at != 0 || e.seq != 0 || e.arg != 0 {
			t.Errorf("wheel cursor buffer[%d] retains event (at=%d seq=%d) after drain", k, e.at, e.seq)
		}
	}
	// The pool tracks the pending population (one wave), not the
	// total event count.
	if len(w.nodes) > wave+64 {
		t.Errorf("wheel pool high-water %d exceeds the %d-event wave population", len(w.nodes), wave)
	}
}

// TestDenseSlotNoSpill files 64 events into one wheel slot — eight
// times what a fixed-capacity bucket used to hold — both before the
// cursor reaches the slot and into the sorted cursor slot itself, and
// checks that none spills to the heap and all fire in (at, seq) order.
func TestDenseSlotNoSpill(t *testing.T) {
	s := New()
	var fired []uint64
	record := func(_ *Simulator, a Arg) { fired = append(fired, a.U0) }
	const n = 64
	slotStart := Time(10 * wheelGran)
	// Filed ahead of the cursor, latest first, so the gather has to
	// sort them.
	for i := n - 1; i >= 0; i-- {
		s.AtArgNamed(slotStart+Time(i), "dense", record, Arg{U0: uint64(i)})
	}
	// Filed from inside the slot once it is sorted: each lands in the
	// cursor buffer's unconsumed tail.
	s.AtArgNamed(slotStart, "late", func(sm *Simulator, _ Arg) {
		for i := 0; i < n; i++ {
			sm.AtArgNamed(slotStart+Time(n+i), "late", record, Arg{U0: uint64(n + i)})
		}
	}, Arg{})
	s.Run()
	if s.spills != 0 {
		t.Fatalf("%d events spilled to the heap from one dense slot", s.spills)
	}
	if len(fired) != 2*n {
		t.Fatalf("fired %d of %d events", len(fired), 2*n)
	}
	for i, id := range fired {
		if id != uint64(i) {
			t.Fatalf("dense slot fired %v, want 0..%d in order", fired, 2*n-1)
		}
	}
}

// TestNewFootprint bounds what one empty simulator allocates: the
// wheel's calendar is 16 KiB of list heads plus a small pre-sized node
// pool, not a slots × capacity event slab.
func TestNewFootprint(t *testing.T) {
	const runs = 16
	var keep [runs]*Simulator
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("sim.New allocates %d B", per)
	if per > 64<<10 {
		t.Fatalf("sim.New allocates %d B, bound %d", per, 64<<10)
	}
	runtime.KeepAlive(keep)
}
