package sim

// Micro-benchmarks for the event kernel's hot path. A full figure run
// processes ~10M events, so push/pop cost and per-event allocation
// bound the whole simulator. The steady-state benchmarks must report
// 0 allocs/op: events are stored by value in the queue's backing
// array, which is reused across RunUntil segments.

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkSchedule measures the raw push cost into a queue at its
// steady-state depth (events are drained block-wise so the backing
// array never grows once warm). One op = one scheduled event.
func BenchmarkSchedule(b *testing.B) {
	s := New()
	fn := func(*Simulator) {}
	const block = 1024
	// Warm the backing array to its steady-state capacity.
	for i := 0; i < block; i++ {
		s.At(s.Now().Add(Duration(i&63)*Nanosecond), fn)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += block {
		base := s.Now()
		for i := 0; i < block; i++ {
			s.At(base.Add(Duration(i&63)*Nanosecond), fn)
		}
		s.Run()
	}
}

// BenchmarkRunUntil measures the full schedule-pop-execute cycle: 64
// self-rescheduling periodic events advanced one period per op. This
// is the simulator's steady state (periodic control-plane tasks plus
// in-flight packet events) and must be allocation-free.
func BenchmarkRunUntil(b *testing.B) {
	s := New()
	const tickers = 64
	var tick Event
	tick = func(sm *Simulator) { sm.After(Microsecond, tick) }
	for i := 0; i < tickers; i++ {
		s.At(Time(i), tick)
	}
	s.RunUntil(s.Now().Add(4 * Microsecond)) // reach steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunUntil(s.Now().Add(1 * Microsecond))
	}
}

// BenchmarkScheduleDeep exercises push/pop against a deep queue
// (64k pending events), the regime where heap arity matters.
func BenchmarkScheduleDeep(b *testing.B) {
	s := New()
	fn := func(*Simulator) {}
	rng := rand.New(rand.NewSource(1))
	const depth = 1 << 16
	offsets := make([]Duration, depth)
	for i := range offsets {
		offsets[i] = Duration(rng.Intn(1<<20)) * Picosecond
	}
	for i := 0; i < depth; i++ {
		s.At(s.Now().Add(offsets[i]), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Replace the queue head: one pop, one push, depth constant.
		// Addressed through the facade so both scheduler levels are
		// exercised at depth.
		s.headBefore(Never, math.MaxUint64)
		e := s.popHead()
		s.enqueue(schedEvent{at: e.at + Time(offsets[i&(depth-1)]), seq: e.seq, fn: fn})
	}
}

// BenchmarkWheelArmCancel measures the hashed timer wheel's arm+cancel
// pair against a standing population of outstanding timers. The O(1)
// claim of the million-flow engine is that ns/op stays flat from 1k to
// 1M outstanding — arm is a slab pop plus list append, cancel an
// unlink, neither touching the population.
func BenchmarkWheelArmCancel(b *testing.B) {
	for _, n := range []struct {
		name string
		pop  int
	}{{"1k", 1 << 10}, {"32k", 1 << 15}, {"1M", 1 << 20}} {
		b.Run(n.name, func(b *testing.B) {
			s := New()
			w := NewTimerWheel(s, 64*Microsecond, 4096)
			k := w.Bind(func(*Simulator, Arg) {}, nil)
			// Standing population: timers spread across the horizon.
			for i := 0; i < n.pop; i++ {
				w.Arm(Duration(i%100_000+1)*Microsecond, k, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := w.Arm(Duration(i%50_000+1)*Microsecond, k, 0)
				w.Cancel(h)
			}
		})
	}
}

// TestHotSchedulingPathZeroAllocs is the regression guard behind the
// observability layer's zero-cost claim: with observability disabled
// (the simulator never links it at all), the steady-state
// schedule-pop-execute cycle must not allocate. Run as a benchmark so
// the number is allocs/op over the real hot loop, not a hand-rolled
// approximation of it.
func TestHotSchedulingPathZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	for _, bench := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"RunUntil", BenchmarkRunUntil},
		{"Schedule", BenchmarkSchedule},
	} {
		res := testing.Benchmark(bench.fn)
		if a := res.AllocsPerOp(); a != 0 {
			t.Errorf("%s: %d allocs/op on the hot scheduling path, want 0", bench.name, a)
		}
	}
}

// lineRig is a host's line engine in miniature: an arrival every 100 ns
// starts a 26-line DMA walk at 2.56 ns a line, each line hints a
// prefetch train issuing every 8 ns, and a 200 ns poll fused through
// FuseAfter interleaves with both, so frames drain foreign events in
// place and get refused.
type lineRig struct {
	s        *Simulator
	dma, pf  *Cursor
	line     int
	hints    int
	arrive   Event
	poll     Event
	lastPoll Time
}

func newLineRig() *lineRig {
	r := &lineRig{s: New()}
	g := NewGroup(r.s)
	r.dma = g.Add(r.stepDMA)
	r.pf = g.Add(r.stepPrefetch)
	r.arrive = func(s *Simulator) {
		if !r.dma.Live() {
			r.line = 0
			r.dma.Start(s.Now(), s.NextSeq())
		}
		s.After(100*Nanosecond, r.arrive)
	}
	r.poll = func(s *Simulator) {
		for s.FuseAfter(200*Nanosecond, r.poll) {
			r.lastPoll = s.Now()
		}
	}
	r.s.At(0, r.arrive)
	r.s.At(0, r.poll)
	return r
}

func (r *lineRig) stepDMA(s *Simulator) (Time, uint64, bool) {
	r.hints = min(r.hints+1, 32) // a full hint queue drops the hint
	if !r.pf.Live() {
		r.pf.Start(s.Now().Add(8*Nanosecond), s.NextSeq())
	}
	if r.line++; r.line < 26 {
		return s.Now().Add(2560 * Picosecond), r.dma.seq, true
	}
	return 0, 0, false
}

func (r *lineRig) stepPrefetch(s *Simulator) (Time, uint64, bool) {
	if r.hints--; r.hints == 0 {
		return 0, 0, false
	}
	return s.Now().Add(8 * Nanosecond), s.NextSeq(), true
}

// BenchmarkGroupSteps measures the line engine's steady state: one op
// advances lineRig by 1 µs (260 DMA steps and 125 prefetch steps). It
// must be allocation-free.
func BenchmarkGroupSteps(b *testing.B) {
	r := newLineRig()
	r.s.RunUntil(r.s.Now().Add(4 * Microsecond)) // reach steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.s.RunUntil(r.s.Now().Add(Microsecond))
	}
}

// TestGroupStepsZeroAllocs: stepping cursors, reaching their keys
// through in-place drains and filing wakes on refusal allocate nothing
// once the rig is warm.
func TestGroupStepsZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	if a := testing.Benchmark(BenchmarkGroupSteps).AllocsPerOp(); a != 0 {
		t.Errorf("%d allocs/op stepping the line engine, want 0", a)
	}
}

// TestEventQueueHeapOrder cross-checks the 4-ary heap against a
// reference sort over random schedules, including heavy same-instant
// ties (the FIFO case the simulator depends on).
func TestEventQueueHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		var q eventQueue
		n := rng.Intn(500) + 1
		for i := 0; i < n; i++ {
			q.push(schedEvent{at: Time(rng.Intn(16)), seq: uint64(i)})
		}
		var prev schedEvent
		for i := 0; i < n; i++ {
			e := q.pop()
			if i > 0 && lessEv(e, prev) {
				t.Fatalf("trial %d: pop %d out of order: %+v after %+v", trial, i, e, prev)
			}
			prev = e
		}
		if len(q) != 0 {
			t.Fatalf("queue not drained: %d left", len(q))
		}
	}
}

// TestEventQueueInterleaved pushes and pops in random interleavings and
// checks the popped sequence is always the global minimum remaining.
func TestEventQueueInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	pending := map[uint64]Time{}
	seq := uint64(0)
	for op := 0; op < 5000; op++ {
		if len(q) == 0 || rng.Intn(2) == 0 {
			at := Time(rng.Intn(1000))
			seq++
			q.push(schedEvent{at: at, seq: seq})
			pending[seq] = at
		} else {
			e := q.pop()
			want, ok := pending[e.seq]
			if !ok || want != e.at {
				t.Fatalf("popped unknown event %+v", e)
			}
			for s2, at := range pending {
				if at < e.at || (at == e.at && s2 < e.seq) {
					t.Fatalf("popped %+v but %d@%d was smaller", e, s2, at)
				}
			}
			delete(pending, e.seq)
		}
	}
}
