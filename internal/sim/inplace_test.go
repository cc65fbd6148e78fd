package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The tests in this file check in-place dispatch differentially: every
// randomized world runs in three modes. Queued, the old way: each
// paced stream checks whether its next step would run next (continueAt,
// fuseAt below) and, when not, queues the step as an event. In place:
// the same streams continue through the kernel's one call (resume,
// FuseAfter, FuseAtArg), which dispatches the events due first inside
// the handler. Engine: the DMA walks and the prefetch-like trains are
// cursors of one Group, the way a host's line engine runs its NIC and
// prefetchers, while the poll and the service chains stay fused
// handlers. The runs must fire the same (time, stream, step) sequence
// and leave the same number of events logically pending at every
// segment end (in engine mode, the cursors with a key stand in for the
// wakes filed for them).

// Stream pacings, as in the model: a NIC DMA line every 2.56 ns, an MLC
// prefetch issue every 8 ns, an idle poll every 200 ns.
const (
	dmaPace   = 2560 * Picosecond
	trainPace = 8 * Nanosecond
	pollPace  = 200 * Nanosecond
)

// backoffPace is a throttled prefetcher's pause before it re-checks.
const backoffPace = 8 * trainPace

// yieldArg is the old hand-off path: re-queue the running argful event
// at time at under its own seq.
func yieldArg(s *Simulator, at Time, fn ArgEvent, arg Arg) {
	s.enqueue(schedEvent{at: at, seq: s.curSeq, afn: fn, arg: s.putArg(arg)})
}

// continueAt is the old pure check for a continuation that keeps the
// running event's seq: it reports whether an event re-filed at
// (t, curSeq) would be the very next thing dispatched, and if so
// advances the clock to t.
func continueAt(s *Simulator, t Time) bool { return pureCheck(s, t, s.curSeq) }

// fuseAt is continueAt for work that would be scheduled as a fresh
// event: its seq would exceed every pending seq, so ties at t defer to
// the pending event.
func fuseAt(s *Simulator, t Time) bool { return pureCheck(s, t, s.seq+1) }

func pureCheck(s *Simulator, t Time, seq uint64) bool {
	if s.stopped || !keyLess(t, seq, s.boundAt, s.boundSeq) || s.headBefore(t, seq) {
		return false
	}
	if t > s.now {
		s.now = t
	}
	return true
}

// ipMode is how a world's streams reach the kernel.
type ipMode int

const (
	modeQueued ipMode = iota
	modeInPlace
	modeEngine
)

func (m ipMode) String() string { return [...]string{"queued", "in place", "engine"}[m] }

// ipWorld is one randomized schedule. Everything a handler decides is
// drawn from rng in the order the steps execute, which every mode
// shares, so the runs build the same schedule.
type ipWorld struct {
	s    *Simulator
	mode ipMode
	rng  *rand.Rand
	log  []string
	// stops arms the stopper one-shots; without it they only log.
	stops   bool
	stopped int
	nextID  int
	trains  []*ipTrain

	// lines is the engine mode's cursor group; idleDMA holds its DMA
	// cursors between walks.
	lines   *Group
	idleDMA []*ipDMACursor

	// Filled in by runIPWorld: the pending count at each segment end,
	// the heap spills, the deepest in-place nesting a step ran at, how
	// many stops fired inside an in-place drain, and (engine mode) how
	// many DMA cursors a foreign event started while a frame of the
	// group was suspended on a later key.
	pending     []int
	spills      uint64
	maxDepth    int
	nestedStops int
	midDrain    int
}

// logicalPending is the number of events the world has pending: in
// engine mode every cursor with a key is one, and the wakes filed for
// them are not counted again.
func (w *ipWorld) logicalPending() int {
	n := w.s.Pending()
	if w.lines != nil {
		for _, c := range w.lines.order {
			if !c.waked {
				n++
			}
		}
	}
	return n
}

func (w *ipWorld) record(kind string, id, step int) {
	w.log = append(w.log, fmt.Sprintf("%d %s%d.%d", w.s.Now(), kind, id, step))
	if w.s.depth > w.maxDepth {
		w.maxDepth = w.s.depth
	}
}

// ipDMA is a paced walk that keeps its seq across steps, like a NIC
// DMA burst.
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
		if w.mode == modeInPlace {
			a.I0 = idx
			if !s.resume(t, s.curSeq, nil, ipDMAEv, &a) {
				return
			}
		} else if !continueAt(s, t) {
			yieldArg(s, t, ipDMAEv, Arg{Obj: d, I0: idx})
			return
		}
	}
}

// ipDMACursor runs DMA walks as a cursor of the world's group, one
// line per step; idle, it waits in ipWorld.idleDMA for the next walk.
type ipDMACursor struct {
	cur *Cursor
	d   *ipDMA
	idx int
}

func (dc *ipDMACursor) step(s *Simulator) (Time, uint64, bool) {
	w := dc.d.w
	w.record("d", dc.d.id, dc.idx)
	w.maybeSpawn()
	if dc.idx++; dc.idx < dc.d.n {
		return s.Now().Add(dmaPace), dc.cur.seq, true
	}
	w.idleDMA = append(w.idleDMA, dc)
	return 0, 0, false
}

// ipTrain is a paced plain-event loop that continues as a fresh event
// (FuseAfter): the prefetch issue train ("t") and the idle poll ("p").
// It sleeps when its budget runs out and is woken by kick, like the
// prefetcher; a prefetch train sometimes backs off instead of stepping
// on, filing its next step a backoffPace later, as an adaptive
// prefetcher does under MLC pressure. In engine mode a prefetch train
// is a cursor (cur).
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
	cur    *Cursor
}

func (tr *ipTrain) kick(s *Simulator, d Duration) {
	tr.left += tr.budget
	if tr.cur != nil {
		if !tr.cur.Live() {
			tr.cur.Start(s.Now().Add(d), s.NextSeq())
		}
		return
	}
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
		if tr.kind == "t" && w.rng.Intn(8) == 0 {
			s.After(backoffPace, tr.fn)
			return
		}
		if tr.left--; tr.left <= 0 {
			tr.busy = false
			return
		}
		if w.mode == modeInPlace || w.mode == modeEngine {
			if !s.FuseAfter(tr.pace, tr.fn) {
				return
			}
		} else if !fuseAt(s, s.Now().Add(tr.pace)) {
			s.After(tr.pace, tr.fn)
			return
		}
	}
}

// stepCursor is a prefetch train's cursor step in engine mode: run's
// loop body with each next step a key instead of an event.
func (tr *ipTrain) stepCursor(s *Simulator) (Time, uint64, bool) {
	w := tr.w
	w.record(tr.kind, tr.id, tr.step)
	tr.step++
	w.maybeSpawn()
	if w.rng.Intn(8) == 0 {
		return s.Now().Add(backoffPace), s.NextSeq(), true
	}
	if tr.left--; tr.left <= 0 {
		return 0, 0, false
	}
	return s.Now().Add(tr.pace), s.NextSeq(), true
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
		if w.mode != modeQueued {
			if !s.FuseAtArg(done, ipChainEv, &Arg{Obj: c}) {
				return
			}
		} else if !fuseAt(s, done) {
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
	w.startWalk(s, at, &ipDMA{w: w, id: w.nextID, n: w.rng.Intn(24) + 2})
}

// startWalk files the walk d's first line at at: as an event, or in
// engine mode as the key of an idle DMA cursor.
func (w *ipWorld) startWalk(s *Simulator, at Time, d *ipDMA) {
	if w.mode != modeEngine {
		s.AtArgNamed(at, "", ipDMAEv, Arg{Obj: d})
		return
	}
	var dc *ipDMACursor
	if k := len(w.idleDMA); k > 0 {
		dc = w.idleDMA[k-1]
		w.idleDMA = w.idleDMA[:k-1]
	} else {
		dc = &ipDMACursor{}
		dc.cur = w.lines.Add(dc.step)
	}
	dc.d, dc.idx = d, 0
	suspended := false
	for _, c := range w.lines.order {
		suspended = suspended || c.held
	}
	dc.cur.Start(at, s.NextSeq())
	if suspended && dc.cur.waked {
		w.midDrain++
	}
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
func buildIPWorld(seed int64, mode ipMode, stops bool) (*ipWorld, []Time) {
	s := New()
	w := &ipWorld{s: s, mode: mode, rng: rand.New(rand.NewSource(seed)), stops: stops}
	if mode == modeEngine {
		w.lines = NewGroup(s)
	}
	for i, spec := range []struct {
		kind string
		pace Duration
	}{{"t", trainPace}, {"t", trainPace}, {"p", pollPace}} {
		tr := &ipTrain{w: w, id: i, kind: spec.kind, pace: spec.pace, budget: w.rng.Intn(40) + 4}
		tr.fn = tr.run
		if mode == modeEngine && spec.kind == "t" {
			tr.cur = w.lines.Add(tr.stepCursor)
		}
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
func runIPWorld(t *testing.T, seed int64, mode ipMode, stops bool, wd *WatchdogConfig, onErr func(*WatchdogError)) *ipWorld {
	w, horizons := buildIPWorld(seed, mode, stops)
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
		w.pending = append(w.pending, w.logicalPending())
	}
	if s.depth != 0 || s.boundAt != Never {
		t.Fatalf("seed %d: kernel left depth %d bound %v after the run", seed, s.depth, s.boundAt)
	}
	if g := w.lines; g != nil {
		if g.stepping || (len(g.order) > 0 && !g.order[0].waked) {
			t.Fatalf("seed %d: the group's smallest key is not covered by a wake after the run", seed)
		}
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
	var inSpills, qSpills, engSpills uint64
	inDepth, engDepth, midDrain, nestedStops := 0, 0, 0, 0
	for seed := int64(1); seed <= 150; seed++ {
		for _, stops := range []bool{false, true} {
			q := runIPWorld(t, seed, modeQueued, stops, nil, nil)
			for _, mode := range []ipMode{modeInPlace, modeEngine} {
				got := runIPWorld(t, seed, mode, stops, nil, nil)
				diffLogs(t, seed, fmt.Sprintf("stops=%v %v vs queued", stops, mode), got.log, q.log)
				if fmt.Sprint(got.pending) != fmt.Sprint(q.pending) {
					t.Fatalf("seed %d stops=%v: pending at segment ends %v %v, %v queued", seed, stops, got.pending, mode, q.pending)
				}
				if mode == modeEngine {
					engSpills += got.spills
					engDepth = max(engDepth, got.maxDepth)
					midDrain += got.midDrain
					nestedStops += got.nestedStops
					continue
				}
				if got.spills > q.spills {
					t.Errorf("seed %d stops=%v: in-place run spilled %d events to the heap, queued run %d", seed, stops, got.spills, q.spills)
				}
				inSpills += got.spills
				inDepth = max(inDepth, got.maxDepth)
			}
			qSpills += q.spills
		}
	}
	if inDepth != maxNest || engDepth != maxNest {
		t.Errorf("deepest nesting %d in place, %d in engine mode; want the limit %d exercised", inDepth, engDepth, maxNest)
	}
	if midDrain == 0 {
		t.Error("no foreign event started an idle DMA cursor while a frame of the group was suspended")
	}
	if nestedStops == 0 {
		t.Error("no stop fired inside an in-place drain in engine mode")
	}
	t.Logf("heap spills: in place %d, engine %d, queued %d; %d cursors started mid-drain", inSpills, engSpills, qSpills, midDrain)
}

// TestStopMidNestResumes: stopping inside in-place drains (the stopper
// one-shots fire nested under suspended continuations) files every
// suspended continuation under its own key, so resuming reproduces the
// run that never stopped, event for event.
func TestStopMidNestResumes(t *testing.T) {
	for _, mode := range []ipMode{modeInPlace, modeEngine} {
		nested := 0
		for seed := int64(1); seed <= 100; seed++ {
			want := runIPWorld(t, seed, mode, false, nil, nil)
			got := runIPWorld(t, seed, mode, true, nil, nil)
			diffLogs(t, seed, fmt.Sprintf("%v: stopped and resumed vs uninterrupted", mode), got.log, want.log)
			nested += got.nestedStops
		}
		if nested == 0 {
			t.Fatalf("%v: no stop fired inside an in-place drain", mode)
		}
	}
}

// TestWatchdogBudgetMidNestResumes: an event budget that trips inside
// an in-place drain aborts with the same kind as the queued run, and
// resuming with RunUntil reproduces the uninterrupted run.
func TestWatchdogBudgetMidNestResumes(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		want := runIPWorld(t, seed, modeInPlace, false, nil, nil)
		for _, mode := range []ipMode{modeInPlace, modeQueued, modeEngine} {
			trips := 0
			got := runIPWorld(t, seed, mode, false, &WatchdogConfig{MaxProcessedEvents: 7}, func(e *WatchdogError) {
				trips++
				// The queued run trips after exactly budget+1 events. In
				// place, the event that exceeds the budget may itself be
				// dispatched inside a handler whose own check comes
				// after it, so up to maxNest more events can have run.
				hi := uint64(8)
				if mode != modeQueued {
					hi += maxNest
				}
				if e.Kind != "event-budget" || e.Events < 8 || e.Events > hi {
					t.Fatalf("seed %d %v: watchdog %v, want event-budget after 8 to %d events", seed, mode, e, hi)
				}
			})
			if trips == 0 {
				t.Fatalf("seed %d %v: the event budget never tripped", seed, mode)
			}
			diffLogs(t, seed, fmt.Sprintf("%v: budget-aborted and resumed vs uninterrupted", mode), got.log, want.log)
		}
	}
}

// TestNoProgressMidNest: a zero-delay loop that runs nested under a
// suspended DMA walk trips no-progress exactly as in the queued run,
// with the walk's continuation filed under its own seq.
func TestNoProgressMidNest(t *testing.T) {
	run := func(mode ipMode) (*WatchdogError, []pendingKey, []string) {
		s := New()
		w := &ipWorld{s: s, mode: mode, rng: rand.New(rand.NewSource(1))}
		if mode == modeEngine {
			w.lines = NewGroup(s)
		}
		w.startWalk(s, 0, &ipDMA{w: w, id: 1, n: 40})
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
	qe, qk, ql := run(modeQueued)
	for _, mode := range []ipMode{modeInPlace, modeEngine} {
		e, k, l := run(mode)
		if e.Kind != "no-progress" || qe.Kind != e.Kind || e.At != qe.At {
			t.Fatalf("%v tripped %v, queued %v", mode, e, qe)
		}
		diffLogs(t, 1, fmt.Sprintf("%v: no-progress run", mode), l, ql)
		if fmt.Sprint(k) != fmt.Sprint(qk) {
			t.Fatalf("pending after the trip: %v %v, queued %v", mode, k, qk)
		}
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
