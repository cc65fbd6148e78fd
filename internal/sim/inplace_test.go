package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The tests in this file check in-place dispatch differentially: every
// randomized world runs once with its fused handlers written against
// the one-call kernel API (ContinueArg, FuseAfter, FuseAtArg) and once
// written the old way — a pure check (ContinueAt, FuseAt) and, when it
// refuses, a queued continuation (yieldArg below, After, AtArgNamed).
// The two runs must fire the same (time, stream, step) sequence and
// leave the same number of events pending at every segment end.

// Stream pacings, as in the model: a NIC DMA line every 2.56 ns, an MLC
// prefetch issue every 8 ns, an idle poll every 200 ns.
const (
	dmaPace   = 2560 * Picosecond
	trainPace = 8 * Nanosecond
	pollPace  = 200 * Nanosecond
)

// yieldArg is the old hand-off path: re-queue the running argful event
// at time at under its own seq.
func yieldArg(s *Simulator, at Time, fn ArgEvent, arg Arg) {
	s.enqueue(schedEvent{at: at, seq: s.curSeq, afn: fn, arg: s.putArg(arg)})
}

// ipWorld is one randomized schedule. Everything a handler decides is
// drawn from rng in the order the steps execute, which both modes
// share, so the two runs build the same schedule.
type ipWorld struct {
	s       *Simulator
	inPlace bool
	rng     *rand.Rand
	log     []string
	// stops arms the stopper one-shots; without it they only log.
	stops   bool
	stopped int
	nextID  int
	trains  []*ipTrain

	// Filled in by runIPWorld: the pending count at each segment end,
	// the heap spills, the deepest in-place nesting a step ran at and
	// how many stops fired inside an in-place drain.
	pending     []int
	spills      uint64
	maxDepth    int
	nestedStops int
}

func (w *ipWorld) record(kind string, id, step int) {
	w.log = append(w.log, fmt.Sprintf("%d %s%d.%d", w.s.Now(), kind, id, step))
	if w.s.depth > w.maxDepth {
		w.maxDepth = w.s.depth
	}
}

// ipDMA is a paced walk that keeps its seq across steps (ContinueArg).
type ipDMA struct {
	w     *ipWorld
	id, n int
}

func ipDMAEv(s *Simulator, a Arg) {
	d := a.Obj.(*ipDMA)
	w := d.w
	idx := a.I0
	t := s.Now()
	for {
		w.record("d", d.id, idx)
		w.maybeSpawn()
		if idx++; idx >= d.n {
			return
		}
		t = t.Add(dmaPace)
		if w.inPlace {
			a.I0 = idx
			if !s.ContinueArg(t, ipDMAEv, &a) {
				return
			}
		} else if !s.ContinueAt(t) {
			yieldArg(s, t, ipDMAEv, Arg{Obj: d, I0: idx})
			return
		}
	}
}

// ipTrain is a paced plain-event loop that continues as a fresh event
// (FuseAfter): the prefetch issue train and the idle poll. It sleeps
// when its budget runs out and is woken by kick, like the prefetcher.
type ipTrain struct {
	w      *ipWorld
	id     int
	kind   string
	pace   Duration
	left   int
	step   int
	busy   bool
	fn     Event
	budget int
}

func (tr *ipTrain) kick(s *Simulator, d Duration) {
	tr.left += tr.budget
	if !tr.busy {
		tr.busy = true
		s.After(d, tr.fn)
	}
}

func (tr *ipTrain) run(s *Simulator) {
	w := tr.w
	for {
		tr.w.record(tr.kind, tr.id, tr.step)
		tr.step++
		w.maybeSpawn()
		if tr.left--; tr.left <= 0 {
			tr.busy = false
			return
		}
		if w.inPlace {
			if !s.FuseAfter(tr.pace, tr.fn) {
				return
			}
		} else if !s.FuseAt(s.Now().Add(tr.pace)) {
			s.After(tr.pace, tr.fn)
			return
		}
	}
}

// ipChain is a service loop whose every step ends at a drawn instant
// and continues as a fresh argful event (FuseAtArg), like a core
// retiring packets.
type ipChain struct {
	w        *ipWorld
	id, n, k int
}

func ipChainEv(s *Simulator, a Arg) {
	c := a.Obj.(*ipChain)
	w := c.w
	for {
		w.record("c", c.id, c.k)
		if c.k++; c.k >= c.n {
			return
		}
		done := s.Now().Add(Duration(w.rng.Intn(6)) * 700 * Picosecond)
		if w.inPlace {
			if !s.FuseAtArg(done, ipChainEv, &Arg{Obj: c}) {
				return
			}
		} else if !s.FuseAt(done) {
			s.AtArgNamed(done, "", ipChainEv, Arg{Obj: c})
			return
		}
	}
}

// ipOneShot is a plain event: it logs and may start new work, fan out
// a same-slot burst (past a wheel bucket's capacity), file an event a
// wheel rotation or more ahead, or stop the run.
func ipOneShotEv(s *Simulator, a Arg) {
	w := a.Obj.(*ipWorld)
	w.record("o", int(a.U0), 0)
	switch r := w.rng.Intn(32); {
	case r < 3:
		w.startDMA(s, s.Now().Add(Duration(w.rng.Intn(4))*dmaPace))
	case r < 5:
		w.trains[w.rng.Intn(len(w.trains))].kick(s, Duration(w.rng.Intn(3))*trainPace)
	case r < 6:
		w.startChain(s, s.Now().Add(Duration(w.rng.Intn(3))*Nanosecond))
	case r < 7:
		at := s.Now().Add(Duration(w.rng.Intn(3)) * Nanosecond)
		for i := w.rng.Intn(6) + 9; i > 0; i-- {
			w.oneShot(s, at)
		}
	case r < 8:
		w.oneShot(s, s.Now().Add(wheelSpan+Duration(w.rng.Intn(3))*wheelGran))
	case r < 9:
		if w.stops {
			w.stopped++
			if s.depth > 0 {
				w.nestedStops++
			}
			s.Stop()
		}
	}
}

func (w *ipWorld) oneShot(s *Simulator, at Time) {
	w.nextID++
	s.AtArgNamed(at, "", ipOneShotEv, Arg{Obj: w, U0: uint64(w.nextID)})
}

func (w *ipWorld) startDMA(s *Simulator, at Time) {
	w.nextID++
	d := &ipDMA{w: w, id: w.nextID, n: w.rng.Intn(24) + 2}
	s.AtArgNamed(at, "", ipDMAEv, Arg{Obj: d})
}

func (w *ipWorld) startChain(s *Simulator, at Time) {
	w.nextID++
	c := &ipChain{w: w, id: w.nextID, n: w.rng.Intn(8) + 1}
	s.AtArgNamed(at, "", ipChainEv, Arg{Obj: c})
}

// maybeSpawn lets a stream step schedule a same-instant or near
// one-shot — the ties that force continuations to be refused.
func (w *ipWorld) maybeSpawn() {
	if w.rng.Intn(16) == 0 {
		w.oneShot(w.s, w.s.Now().Add(Duration(w.rng.Intn(3))*dmaPace))
	}
}

// ipArrivals is a reserved-seq stream (ReserveSeqs/AtArgSeq) whose
// arrivals start DMA walks, like the traffic generator feeding the NIC.
type ipArrivals struct {
	w     *ipWorld
	id    int
	times []Time
	seq0  uint64
	next  int
}

func ipArrivalEv(s *Simulator, a Arg) {
	st := a.Obj.(*ipArrivals)
	k := st.next
	st.next++
	if st.next < len(st.times) {
		s.AtArgSeq(st.times[st.next], st.seq0+uint64(st.next), ipArrivalEv, a)
	}
	st.w.record("a", st.id, k)
	if st.w.rng.Intn(2) == 0 {
		st.w.startDMA(s, s.Now())
	}
}

// buildIPWorld installs seed's schedule and returns the segment
// horizons to run it to.
func buildIPWorld(seed int64, inPlace, stops bool) (*ipWorld, []Time) {
	s := New()
	w := &ipWorld{s: s, inPlace: inPlace, rng: rand.New(rand.NewSource(seed)), stops: stops}
	for i, spec := range []struct {
		kind string
		pace Duration
	}{{"t", trainPace}, {"t", trainPace}, {"p", pollPace}} {
		tr := &ipTrain{w: w, id: i, kind: spec.kind, pace: spec.pace, budget: w.rng.Intn(40) + 4}
		tr.fn = tr.run
		w.trains = append(w.trains, tr)
		tr.kick(s, Duration(w.rng.Intn(50))*Nanosecond)
	}
	const span = 20 * Microsecond
	for i := 0; i < 3; i++ {
		n := w.rng.Intn(40) + 1
		st := &ipArrivals{w: w, id: i, times: make([]Time, n)}
		at := Time(w.rng.Intn(200)) * Time(Nanosecond)
		for k := range st.times {
			st.times[k] = at
			at = at.Add(Duration(w.rng.Intn(4)) * 64 * Nanosecond)
		}
		st.seq0 = s.ReserveSeqs(uint64(n))
		s.AtArgSeq(st.times[0], st.seq0, ipArrivalEv, Arg{Obj: st})
	}
	for i := w.rng.Intn(30) + 10; i > 0; i-- {
		w.oneShot(s, Time(w.rng.Int63n(int64(span))))
	}
	for i := w.rng.Intn(6); i > 0; i-- {
		w.startDMA(s, Time(w.rng.Int63n(int64(span))))
	}
	var horizons []Time
	for h := Time(0); h < Time(span); {
		h = h.Add(Duration(w.rng.Int63n(int64(span / 4))))
		horizons = append(horizons, h)
	}
	return w, append(horizons, Never)
}

// runIPWorld runs the world segment by segment, resuming after every
// Stop, and returns it with its log and run statistics. A non-nil wd
// is installed before every RunUntil; onErr sees each watchdog abort,
// after which the run resumes with the next RunUntil.
func runIPWorld(t *testing.T, seed int64, inPlace, stops bool, wd *WatchdogConfig, onErr func(*WatchdogError)) *ipWorld {
	w, horizons := buildIPWorld(seed, inPlace, stops)
	s := w.s
	for _, h := range horizons {
		for guard := 0; ; guard++ {
			if guard > 1_000_000 {
				t.Fatalf("seed %d: segment to %v does not finish", seed, h)
			}
			if wd != nil {
				s.SetWatchdog(*wd)
			}
			before := w.stopped
			s.RunUntil(h)
			if err := s.Err(); err != nil {
				onErr(err.(*WatchdogError))
				continue
			}
			if w.stopped == before {
				break
			}
		}
		w.pending = append(w.pending, s.Pending())
	}
	if s.depth != 0 || s.boundAt != Never {
		t.Fatalf("seed %d: kernel left depth %d bound %v after the run", seed, s.depth, s.boundAt)
	}
	w.spills = s.spills
	return w
}

func diffLogs(t *testing.T, seed int64, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, wnt string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			wnt = want[i]
		}
		if g != wnt {
			t.Fatalf("seed %d: %s: entry %d is %q, want %q (lengths %d, %d)", seed, what, i, g, wnt, len(got), len(want))
		}
	}
}

func TestInPlaceDispatchMatchesQueued(t *testing.T) {
	var inSpills, qSpills uint64
	maxDepth := 0
	for seed := int64(1); seed <= 150; seed++ {
		for _, stops := range []bool{false, true} {
			q := runIPWorld(t, seed, false, stops, nil, nil)
			in := runIPWorld(t, seed, true, stops, nil, nil)
			diffLogs(t, seed, fmt.Sprintf("stops=%v in-place vs queued", stops), in.log, q.log)
			if fmt.Sprint(in.pending) != fmt.Sprint(q.pending) {
				t.Fatalf("seed %d stops=%v: pending at segment ends %v in place, %v queued", seed, stops, in.pending, q.pending)
			}
			if in.spills > q.spills {
				t.Errorf("seed %d stops=%v: in-place run spilled %d events to the heap, queued run %d", seed, stops, in.spills, q.spills)
			}
			inSpills += in.spills
			qSpills += q.spills
			maxDepth = max(maxDepth, in.maxDepth)
		}
	}
	if maxDepth != maxNest {
		t.Errorf("deepest in-place nesting %d, want the limit %d exercised", maxDepth, maxNest)
	}
	t.Logf("heap spills: in place %d, queued %d", inSpills, qSpills)
}

// TestStopMidNestResumes: stopping inside in-place drains (the stopper
// one-shots fire nested under suspended continuations) files every
// suspended continuation under its own key, so resuming reproduces the
// run that never stopped, event for event.
func TestStopMidNestResumes(t *testing.T) {
	nested := 0
	for seed := int64(1); seed <= 100; seed++ {
		want := runIPWorld(t, seed, true, false, nil, nil)
		got := runIPWorld(t, seed, true, true, nil, nil)
		diffLogs(t, seed, "stopped and resumed vs uninterrupted", got.log, want.log)
		nested += got.nestedStops
	}
	if nested == 0 {
		t.Fatal("no stop fired inside an in-place drain")
	}
}

// TestWatchdogBudgetMidNestResumes: an event budget that trips inside
// an in-place drain aborts with the same kind as the queued run, and
// resuming with RunUntil reproduces the uninterrupted run.
func TestWatchdogBudgetMidNestResumes(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		want := runIPWorld(t, seed, true, false, nil, nil)
		for _, inPlace := range []bool{true, false} {
			trips := 0
			got := runIPWorld(t, seed, inPlace, false, &WatchdogConfig{MaxProcessedEvents: 7}, func(e *WatchdogError) {
				trips++
				// The queued run trips after exactly budget+1 events. In
				// place, the event that exceeds the budget may itself be
				// dispatched inside a handler whose own check comes
				// after it, so up to maxNest more events can have run.
				hi := uint64(8)
				if inPlace {
					hi += maxNest
				}
				if e.Kind != "event-budget" || e.Events < 8 || e.Events > hi {
					t.Fatalf("seed %d inPlace=%v: watchdog %v, want event-budget after 8 to %d events", seed, inPlace, e, hi)
				}
			})
			if trips == 0 {
				t.Fatalf("seed %d inPlace=%v: the event budget never tripped", seed, inPlace)
			}
			diffLogs(t, seed, fmt.Sprintf("inPlace=%v budget-aborted and resumed vs uninterrupted", inPlace), got.log, want.log)
		}
	}
}

// TestNoProgressMidNest: a zero-delay loop that runs nested under a
// suspended DMA walk trips no-progress exactly as in the queued run,
// with the walk's continuation filed under its own seq.
func TestNoProgressMidNest(t *testing.T) {
	run := func(inPlace bool) (*WatchdogError, []pendingKey, []string) {
		s := New()
		w := &ipWorld{s: s, inPlace: inPlace, rng: rand.New(rand.NewSource(1))}
		d := &ipDMA{w: w, id: 1, n: 40}
		s.AtArgNamed(0, "", ipDMAEv, Arg{Obj: d})
		var spin Event
		spin = func(sm *Simulator) {
			w.record("z", 0, 0)
			sm.At(sm.Now(), spin)
		}
		s.At(Time(10*dmaPace+100), spin)
		s.SetWatchdog(WatchdogConfig{MaxEventsPerInstant: 50})
		s.Run()
		return s.Err().(*WatchdogError), pendingKeys(s), w.log
	}
	qe, qk, ql := run(false)
	ie, ik, il := run(true)
	if ie.Kind != "no-progress" || qe.Kind != ie.Kind || ie.At != qe.At {
		t.Fatalf("in place tripped %v, queued %v", ie, qe)
	}
	diffLogs(t, 1, "no-progress run", il, ql)
	if fmt.Sprint(ik) != fmt.Sprint(qk) {
		t.Fatalf("pending after the trip: in place %v, queued %v", ik, qk)
	}
}

type pendingKey struct {
	at  Time
	seq uint64
}

// pendingKeys lists every queued event's key in (at, seq) order.
func pendingKeys(s *Simulator) []pendingKey {
	var keys []pendingKey
	for s.headBefore(Never, ^uint64(0)) {
		e := s.popHead()
		keys = append(keys, pendingKey{e.at, e.seq})
	}
	return keys
}
