package traffic

import (
	"fmt"
	"math/rand"
	"testing"

	"idio/internal/pkt"
	"idio/internal/sim"
)

// The streamed generators keep one pending event per stream and file
// each successor under a reserved seq. These tests hold them to the
// reference they replace: filing every arrival up front, one fresh seq
// per arrival in index order.

// refBursty is the pre-scheduling Bursty.Install, kept as a reference.
func refBursty(g Bursty, s *sim.Simulator, rx Receiver) uint64 {
	tmpl, err := g.Flow.Template()
	if err != nil {
		panic(err)
	}
	pool := poolFor(nil, rx)
	emit := func(sm *sim.Simulator, a sim.Arg) {
		p := pool.Get(tmpl.FrameLen())
		tmpl.Stamp(p, a.U0)
		rx.Receive(sm, p)
	}
	gap := InterArrival(g.BurstRateBps, g.Flow.FrameLen)
	seq := uint64(0)
	for b := 0; b < g.NumBursts; b++ {
		burstStart := g.Start.Add(sim.Duration(int64(g.Period) * int64(b)))
		for i := 0; i < g.PacketsPerBurst; i++ {
			at := burstStart.Add(sim.Duration(int64(gap) * int64(i)))
			s.AtArgNamed(at, "burst-pkt", emit, sim.Arg{U0: seq})
			seq++
		}
	}
	return seq
}

// refTrace is the pre-scheduling Trace.Install, kept as a reference.
func refTrace(g Trace, s *sim.Simulator, rx Receiver) uint64 {
	pool := poolFor(nil, rx)
	emit := func(sm *sim.Simulator, a sim.Arg) {
		tmpl := a.Obj2.(*pkt.Template)
		p := pool.Get(tmpl.FrameLen())
		tmpl.Stamp(p, a.U0)
		rx.Receive(sm, p)
	}
	tmpls := make(map[int]*pkt.Template)
	for i, at := range g.Times {
		flen := g.Flow.FrameLen
		if i < len(g.FrameLen) && g.FrameLen[i] > 0 {
			flen = g.FrameLen[i]
		}
		tmpl, ok := tmpls[flen]
		if !ok {
			flow := g.Flow
			flow.FrameLen = flen
			var err error
			if tmpl, err = flow.Template(); err != nil {
				panic(err)
			}
			tmpls[flen] = tmpl
		}
		s.AtArgNamed(at, "trace-pkt", emit, sim.Arg{Obj2: tmpl, U0: uint64(i)})
	}
	return uint64(len(g.Times))
}

// logRx records every delivery — receiver, packet seq, frame length,
// arrival time and the number of events dispatched so far — into a log
// shared with the competing event source. A non-nil pending hook sees
// the simulator at every delivery.
type logRx struct {
	name    string
	log     *[]string
	pending func(s *sim.Simulator, name string)
}

func (r logRx) Receive(s *sim.Simulator, p *pkt.Packet) {
	if r.pending != nil {
		r.pending(s, r.name)
	}
	*r.log = append(*r.log, fmt.Sprintf("%d %s seq=%d len=%d dispatched=%d", s.Now(), r.name, p.Seq, len(p.Frame), s.Processed()))
	p.Release()
}

// world is one randomized simulation: a mix of generators installed
// between plain events that land on the generators' own instants and
// reschedule themselves onto them.
type world struct {
	s     *sim.Simulator
	rng   *rand.Rand
	log   []string
	plain sim.Event
	fired int
}

func newWorld(seed int64) *world {
	w := &world{s: sim.New(), rng: rand.New(rand.NewSource(seed))}
	w.plain = func(sm *sim.Simulator) {
		id := w.fired
		w.fired++
		w.log = append(w.log, fmt.Sprintf("%d plain%d dispatched=%d", sm.Now(), id, sm.Processed()))
		if w.fired < 2000 && w.rng.Intn(4) > 0 {
			sm.At(sm.Now()+sim.Time(w.rng.Intn(4))*1000, w.plain)
		}
	}
	return w
}

// competitor files a few plain events on the 1 ns grid every trace in
// these tests uses, so they tie with arrivals.
func (w *world) competitor() {
	for j := w.rng.Intn(4); j > 0; j-- {
		w.s.At(sim.Time(w.rng.Intn(64))*1000, w.plain)
	}
}

func (w *world) run() []string {
	for h := sim.Time(0); h < 80_000; h += 7_000 {
		w.s.RunUntil(h)
	}
	w.s.Run()
	return w.log
}

// randomTrace draws a trace on a coarse grid, unsorted and with
// duplicate times, and with mixed (and defaulted) frame lengths when
// mixed is set.
func randomTrace(rng *rand.Rand, mixed bool) Trace {
	n := rng.Intn(40)
	g := Trace{Flow: flow(1514), Times: make([]sim.Time, n)}
	for i := range g.Times {
		g.Times[i] = sim.Time(rng.Intn(64)) * 1000
	}
	if rng.Intn(3) == 0 {
		// Some traces arrive sorted, taking the no-permutation path.
		for i := 1; i < n; i++ {
			if g.Times[i] < g.Times[i-1] {
				g.Times[i] = g.Times[i-1]
			}
		}
	}
	if mixed {
		lens := []int{0, 64, 200, 1514}
		g.FrameLen = make([]int, rng.Intn(n+1)) // may be shorter than Times
		for i := range g.FrameLen {
			g.FrameLen[i] = lens[rng.Intn(len(lens))]
		}
	}
	return g
}

// randomBursty draws a bursty stream. Half of them use 125-byte frames
// at 1e12/k bps, so every arrival sits on the 1 ns grid and ties with
// the competing events; the rest use realistic frame sizes and rates.
func randomBursty(rng *rand.Rand) Bursty {
	g := Bursty{
		Flow:            flow(125),
		BurstRateBps:    1e12 / int64(1+rng.Intn(4)),
		PacketsPerBurst: 1 + rng.Intn(12),
		Start:           sim.Time(rng.Intn(64)) * 1000,
		NumBursts:       1 + rng.Intn(5),
	}
	if rng.Intn(2) == 0 {
		g.Flow = flow(64 + rng.Intn(1451))
		g.BurstRateBps = Gbps(float64(10 + rng.Intn(91)))
	}
	g.Period = g.BurstLength() + sim.Duration(1+rng.Intn(8))*sim.Nanosecond
	return g
}

// runGenerators builds the same world twice — once through the
// reference installers, once through the streamed ones — from seed.
func runGenerators(seed int64, streamed bool) []string {
	w := newWorld(seed)
	for k := 0; k < 4; k++ {
		w.competitor()
		rx := logRx{name: fmt.Sprintf("rx%d", k), log: &w.log}
		if w.rng.Intn(2) == 0 {
			g := randomTrace(w.rng, w.rng.Intn(2) == 0)
			if streamed {
				g.Install(w.s, rx)
			} else {
				refTrace(g, w.s, rx)
			}
		} else {
			g := randomBursty(w.rng)
			if streamed {
				g.Install(w.s, rx)
			} else {
				refBursty(g, w.s, rx)
			}
		}
	}
	w.competitor()
	return w.run()
}

func TestStreamedGeneratorsMatchPreScheduled(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		want := runGenerators(seed, false)
		got := runGenerators(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: streamed logged %d events, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d streamed %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestStreamedGeneratorsKeepOnePendingEvent: each stream keeps exactly
// one event pending while it has arrivals left, and files it before it
// hands its packet on — at every delivery the simulator holds one event
// per stream with arrivals still to come.
func TestStreamedGeneratorsKeepOnePendingEvent(t *testing.T) {
	s := sim.New()
	var log []string
	left := map[string]int{"trace": 5000, "short": 4, "bursty": 256 * 20}
	check := func(sm *sim.Simulator, name string) {
		left[name]--
		want := 0
		for _, n := range left {
			if n > 0 {
				want++
			}
		}
		if got := sm.Pending(); got != want {
			t.Fatalf("%s delivery at %v: %d events pending, want %d (one per stream with arrivals left)", name, sm.Now(), got, want)
		}
	}
	rx := func(name string) logRx { return logRx{name: name, log: &log, pending: check} }
	times := make([]sim.Time, 5000)
	for i := range times {
		times[i] = sim.Time(len(times)-i) * 100 // unsorted: reversed
	}
	Trace{Flow: flow(1514), Times: times}.Install(s, rx("trace"))
	Trace{Flow: flow(1514), Times: []sim.Time{0, 0, 5, 5}, FrameLen: []int{100, 0}}.Install(s, rx("short"))
	Bursty{Flow: flow(1514), BurstRateBps: Gbps(100), Period: 100 * sim.Microsecond,
		PacketsPerBurst: 256, NumBursts: 20}.Install(s, rx("bursty"))
	if got := s.Pending(); got != 3 {
		t.Fatalf("pending %d after installing 3 streams, want 3", got)
	}
	peak := 0
	for h := sim.Time(0); s.Pending() > 0; h += 5 * sim.Time(sim.Microsecond) {
		s.RunUntil(h)
		peak = max(peak, s.Pending())
	}
	if peak > 3 {
		t.Fatalf("pending peaked at %d events, want at most one per stream", peak)
	}
	if len(log) != 5000+4+256*20 {
		t.Fatalf("delivered %d packets", len(log))
	}
}
