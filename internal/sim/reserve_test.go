package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected a panic", what)
		}
	}()
	fn()
}

func nopArg(*Simulator, Arg) {}

func TestAtArgSeqPanicsOnUnreservedSeq(t *testing.T) {
	s := New()
	first := s.ReserveSeqs(4)     // seqs 1..4
	s.At(10, func(*Simulator) {}) // consumes seq 5 unreserved
	second := s.ReserveSeqs(2)    // seqs 6..7
	if first != 1 || second != 6 {
		t.Fatalf("blocks start at %d and %d, want 1 and 6", first, second)
	}
	for _, seq := range []uint64{0, 5, 8, 100} {
		mustPanic(t, fmt.Sprintf("seq %d", seq), func() { s.AtArgSeq(10, seq, nopArg, Arg{}) })
	}
	for _, seq := range []uint64{1, 4, 6, 7} {
		s.AtArgSeq(10, seq, nopArg, Arg{})
	}
	if got := s.Pending(); got != 5 {
		t.Fatalf("pending %d, want 5", got)
	}
	if s.ReserveSeqs(0) != 8 {
		t.Fatal("an empty reservation must not consume seqs")
	}
	mustPanic(t, "seq 8 after an empty reservation", func() { s.AtArgSeq(10, 8, nopArg, Arg{}) })
}

func TestAtArgSeqPanicsOnPastTime(t *testing.T) {
	s := New()
	seq := s.ReserveSeqs(1)
	s.At(100, func(sm *Simulator) {
		mustPanic(t, "past time", func() { sm.AtArgSeq(50, seq, nopArg, Arg{}) })
	})
	s.Run()
	mustPanic(t, "nil handler", func() { s.AtArgSeq(200, seq, nil, Arg{}) })
}

// seqStream is a toy arrival stream with a known sorted schedule: the
// streamed form keeps one pending event and files each successor under
// its reserved seq, the pre-scheduled form files every arrival at once.
type seqStream struct {
	id    int
	times []Time
	seq0  uint64
	next  int
	log   *[]string
	// pending, when set, is checked on every firing: the simulator must
	// hold exactly one event per stream that still has arrivals left.
	pending func(sm *Simulator)
}

func fireSeqStream(sm *Simulator, a Arg) {
	st := a.Obj.(*seqStream)
	k := st.next
	st.next++
	if st.next < len(st.times) {
		sm.AtArgSeq(st.times[st.next], st.seq0+uint64(st.next), fireSeqStream, a)
	}
	if st.pending != nil {
		st.pending(sm)
	}
	*st.log = append(*st.log, fmt.Sprintf("%d s%d.%d", sm.Now(), st.id, k))
}

func firePreScheduled(sm *Simulator, a Arg) {
	st := a.Obj.(*seqStream)
	*st.log = append(*st.log, fmt.Sprintf("%d s%d.%d", sm.Now(), st.id, a.U0))
}

// install files the stream in one of the two forms.
func (st *seqStream) install(s *Simulator, streamed bool) {
	if !streamed {
		for k, at := range st.times {
			s.AtArgNamed(at, "", firePreScheduled, Arg{Obj: st, U0: uint64(k)})
		}
		return
	}
	st.seq0 = s.ReserveSeqs(uint64(len(st.times)))
	if len(st.times) > 0 {
		s.AtArgSeq(st.times[0], st.seq0, fireSeqStream, Arg{Obj: st})
	}
}

// runSeqWorld builds one randomized world — streams with tied and
// duplicate times, plain events before, between and after them that
// reschedule onto tied instants and probe fuseAt/continueAt — and
// returns its firing log.
func runSeqWorld(seed int64, streamed bool) []string {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	var log []string
	var plain Event
	nplain := 0
	plain = func(sm *Simulator) {
		id := nplain
		nplain++
		fuse := fuseAt(sm, sm.Now()+Time(rng.Intn(40)))
		cont := continueAt(sm, sm.Now()+Time(rng.Intn(40)))
		log = append(log, fmt.Sprintf("%d p%d fuse=%v cont=%v", sm.Now(), id, fuse, cont))
		if nplain < 400 && rng.Intn(3) > 0 {
			// Land on an instant the streams also use, or on now.
			sm.At(sm.Now()+Time(rng.Intn(3)*10), plain)
		}
	}
	randTimes := func() []Time {
		n := rng.Intn(30)
		ts := make([]Time, n)
		for i := range ts {
			ts[i] = Time(rng.Intn(30) * 10) // coarse grid: many ties
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		return ts
	}
	for i := 0; i < 5; i++ {
		for j := rng.Intn(4); j > 0; j-- {
			s.At(Time(rng.Intn(30)*10), plain)
		}
		st := &seqStream{id: i, times: randTimes(), log: &log}
		st.install(s, streamed)
	}
	s.At(Time(rng.Intn(30)*10), plain)
	// Run in segments so pending streams also survive horizon stops.
	for h := Time(50); h <= 400; h += 50 {
		s.RunUntil(h)
	}
	s.Run()
	return log
}

func TestReservedSeqStreamMatchesPreScheduled(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		want := runSeqWorld(seed, false)
		got := runSeqWorld(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: streamed fired %d events, pre-scheduled %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d streamed %q, pre-scheduled %q", seed, i, got[i], want[i])
			}
		}
	}
}

func TestReservedSeqStreamKeepsOnePendingEvent(t *testing.T) {
	s := New()
	var log []string
	var streams []*seqStream
	check := func(sm *Simulator) {
		live := 0
		for _, st := range streams {
			if st.next < len(st.times) {
				live++
			}
		}
		if sm.Pending() != live {
			t.Fatalf("pending %d with %d live streams", sm.Pending(), live)
		}
	}
	for i := 0; i < 3; i++ {
		ts := make([]Time, 1000*(i+1))
		for k := range ts {
			ts[k] = Time(k * (i + 1))
		}
		st := &seqStream{id: i, times: ts, log: &log, pending: check}
		streams = append(streams, st)
		st.install(s, true)
	}
	if s.Pending() != 3 {
		t.Fatalf("pending %d after install, want one per stream", s.Pending())
	}
	s.Run()
	if len(log) != 6000 {
		t.Fatalf("fired %d arrivals, want 6000", len(log))
	}
}
