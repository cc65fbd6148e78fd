package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestEngineEpochBarriers checks the conservative epoch loop: every
// domain reaches each barrier before the flush runs, and flushed
// injections land in the destination domain at their exact timestamps.
func TestEngineEpochBarriers(t *testing.T) {
	a, b := New(), New()
	const W = 2 * Microsecond

	// Domain a produces a handoff at every 3 µs tick; the flush
	// delivers it to b at t+W, mimicking a cross-domain link.
	type handoff struct{ deliverAt Time }
	var mailbox []handoff
	var delivered []Time
	for i := 0; i < 5; i++ {
		at := Time((i + 1) * 3 * int(Microsecond))
		a.AtNamed(at, "produce", func(s *Simulator) {
			mailbox = append(mailbox, handoff{deliverAt: s.Now() + Time(W)})
		})
	}
	e := NewEngine(W, func() {
		for _, h := range mailbox {
			h := h
			b.AtNamed(h.deliverAt, "deliver", func(s *Simulator) {
				if s.Now() != h.deliverAt {
					t.Errorf("delivery ran at %v, want %v", s.Now(), h.deliverAt)
				}
				delivered = append(delivered, s.Now())
			})
		}
		mailbox = mailbox[:0]
	})
	e.AddDomain(&Domain{Name: "a", Sim: a})
	e.AddDomain(&Domain{Name: "b", Sim: b})

	if err := e.Run(Time(20*Microsecond), 0, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(delivered) != 5 {
		t.Fatalf("delivered %d handoffs, want 5", len(delivered))
	}
	for i, at := range delivered {
		want := Time((i+1)*3*int(Microsecond)) + Time(W)
		if at != want {
			t.Errorf("handoff %d delivered at %v, want %v", i, at, want)
		}
	}
	if e.Now() != Time(20*Microsecond) {
		t.Errorf("engine now %v, want horizon", e.Now())
	}
	if e.Epochs() != 10 { // 20 µs / 2 µs lookahead
		t.Errorf("epochs %d, want 10", e.Epochs())
	}
}

// TestEngineIdleStopsAtCheckpoint checks that the until-idle predicate
// is consulted only at checkpoint multiples — the contract that keeps
// sharded runs stopping at exactly the same instant as one-domain
// runs, whose epochs end only at the 100 µs checkpoints.
func TestEngineIdleStopsAtCheckpoint(t *testing.T) {
	a := New()
	done := false
	a.AtNamed(Time(30*Microsecond), "finish", func(*Simulator) { done = true })

	var checkedAt []Time
	e := NewEngine(2*Microsecond, nil)
	e.AddDomain(&Domain{Name: "a", Sim: a})
	err := e.Run(Time(1*Millisecond), 100*Microsecond, func() bool {
		checkedAt = append(checkedAt, e.Now())
		return done
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Work finishes at 30 µs, so the first checkpoint (100 µs) already
	// sees the system idle; the predicate must not have been consulted
	// at any of the 2 µs epoch barriers before it.
	if len(checkedAt) != 1 || checkedAt[0] != Time(100*Microsecond) {
		t.Fatalf("idle checked at %v, want exactly [100µs]", checkedAt)
	}
	if e.Now() != Time(100*Microsecond) {
		t.Errorf("engine stopped at %v, want the 100µs checkpoint", e.Now())
	}
}

// TestEngineWatchdogAbort checks that a watchdog trip in any domain is
// caught at the next barrier (RunUntil resets the error on entry, so a
// checkpoint-only check would silently lose it) and is attributed to
// the tripping domain by name.
func TestEngineWatchdogAbort(t *testing.T) {
	a, b := New(), New()
	b.SetWatchdog(WatchdogConfig{MaxEventsPerInstant: 8})
	// A zero-delay self-rescheduling event trips the no-progress
	// detector partway through the run.
	var spin func(s *Simulator)
	spin = func(s *Simulator) { s.At(s.Now(), spin) }
	b.AtNamed(Time(5*Microsecond), "spin", spin)

	e := NewEngine(2*Microsecond, nil)
	e.AddDomain(&Domain{Name: "dut", Sim: a})
	e.AddDomain(&Domain{Name: "clients.0", Sim: b})
	err := e.Run(Time(1*Millisecond), 0, nil)
	if err == nil {
		t.Fatal("Run returned nil, want watchdog abort")
	}
	var wd *WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("Run error %v does not wrap *WatchdogError", err)
	}
	if !strings.Contains(err.Error(), "clients.0") {
		t.Errorf("error %q does not name the tripping domain", err)
	}
	if e.Err() == nil {
		t.Error("Err() nil after aborted run")
	}
	if e.Now() >= Time(1*Millisecond) {
		t.Errorf("engine ran to horizon (%v) despite the abort", e.Now())
	}
}

// TestEnginePending sums queued events and parked external handoffs.
func TestEnginePending(t *testing.T) {
	a, b := New(), New()
	a.AtNamed(Time(Microsecond), "x", func(*Simulator) {})
	parked := 3
	e := NewEngine(Microsecond, nil)
	e.AddDomain(&Domain{Name: "a", Sim: a, PendingExternal: func() int { return parked }})
	e.AddDomain(&Domain{Name: "b", Sim: b})
	if got := e.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want 4 (1 queued + 3 parked)", got)
	}
}

// TestEngineLookaheadValidation rejects a non-positive window once an
// engine has two domains: with zero lookahead a handoff could land
// inside the very epoch that produced it, after its delivery time has
// already passed. A lone domain has no cross-domain edge and needs no
// window.
func TestEngineLookaheadValidation(t *testing.T) {
	for _, w := range []Duration{0, -Microsecond} {
		e := NewEngine(w, nil)
		e.AddDomain(&Domain{Name: "a", Sim: New()})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddDomain of a second domain with lookahead %v did not panic", w)
				}
			}()
			e.AddDomain(&Domain{Name: "b", Sim: New()})
		}()
	}
}

// slicingLoop is a reference copy of the until-idle loop that System
// and Cluster ran before every run became a sim.Engine: run in step
// slices from time zero and stop after the first slice that ends idle
// or aborted. It returns the slice end it stopped at.
func slicingLoop(s *Simulator, horizon, step Duration, idle func() bool) Time {
	var t Duration
	for ; t < horizon; t += step {
		s.RunUntil(Time(t + step))
		if s.Err() != nil || idle() {
			return Time(t + step)
		}
	}
	return Time(t)
}

// randomWorkload builds a simulator with seeded self-rescheduling event
// chains that move a work level up and down, and an idle predicate that
// holds only when the level is zero and a seeded per-checkpoint flip
// allows it, so runs stop at varying checkpoints. With spin, one chain
// ends in a zero-delay loop that trips the watchdog.
func randomWorkload(seed int64, step Duration, spin bool) (*Simulator, func() bool) {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	s.SetWatchdog(WatchdogConfig{MaxEventsPerInstant: 256})
	level := 0
	for c, chains := 0, 1+rng.Intn(8); c < chains; c++ {
		crng := rand.New(rand.NewSource(rng.Int63()))
		gap := 1 + crng.Int63n(int64(60*Microsecond))
		left := crng.Intn(200)
		var ev func(*Simulator)
		ev = func(s *Simulator) {
			if crng.Intn(2) == 0 {
				level++
			} else if level > 0 {
				level--
			}
			if left--; left > 0 {
				s.After(Duration(crng.Int63n(gap)), ev)
			}
		}
		s.At(Time(crng.Int63n(int64(2*Millisecond))), ev)
	}
	if spin {
		var loop func(*Simulator)
		loop = func(s *Simulator) { s.After(0, loop) }
		s.At(Time(rng.Int63n(int64(Millisecond))), loop)
	}
	flips := make([]bool, 64)
	for i := range flips {
		flips[i] = rng.Intn(3) == 0
	}
	return s, func() bool { return level == 0 && flips[int(s.Now()/Time(step))%len(flips)] }
}

// TestEngineMatchesSlicingLoop checks that a one-domain engine with no
// lookahead, run to the horizon rounded up to a checkpoint, stops where
// the reference slicing loop stops: the same instant, the same event
// count, and the same barrier when the watchdog trips.
func TestEngineMatchesSlicingLoop(t *testing.T) {
	const step = 100 * Microsecond
	var tripped, idled, full int
	for seed := int64(1); seed <= 200; seed++ {
		spin := seed%3 == 0
		rng := rand.New(rand.NewSource(-seed))
		horizon := Duration(1 + rng.Int63n(int64(5*Millisecond)))

		ref, refIdle := randomWorkload(seed, step, spin)
		refStop := slicingLoop(ref, horizon, step, refIdle)

		s, idle := randomWorkload(seed, step, spin)
		e := NewEngine(0, nil)
		e.AddDomain(&Domain{Name: "host", Sim: s})
		end := Time(horizon)
		if r := end % Time(step); r != 0 {
			end += Time(step) - r
		}
		err := e.Run(end, step, idle)

		if s.Now() != ref.Now() || s.Processed() != ref.Processed() || e.Now() != refStop {
			t.Fatalf("seed %d: engine stopped at %v (barrier %v) after %d events, slicing loop at %v (barrier %v) after %d",
				seed, s.Now(), e.Now(), s.Processed(), ref.Now(), refStop, ref.Processed())
		}
		if (err != nil) != (ref.Err() != nil) {
			t.Fatalf("seed %d: engine error %v, slicing loop error %v", seed, err, ref.Err())
		}
		switch {
		case err != nil:
			tripped++
		case e.Now() < end:
			idled++
		default:
			full++
		}
	}
	// Every way a run can end must be exercised.
	if tripped < 10 || idled < 10 || full < 10 {
		t.Fatalf("outcomes too skewed: %d watchdog trips, %d idle stops, %d full runs", tripped, idled, full)
	}
}

// ring is a synthetic cross-domain mailbox for TestEngineRunAllocs:
// each hopper forwards its token to the next domain one lookahead
// later, through the engine's barrier flush.
type ring struct {
	box  []handoff
	hops int
}

type handoff struct {
	to *hopper
	at Time
}

type hopper struct {
	r    *ring
	sim  *Simulator
	next *hopper
}

const ringLookahead = Microsecond

// hopEv is a package-level handler so scheduling it allocates nothing.
func hopEv(s *Simulator, a Arg) {
	h := a.Obj.(*hopper)
	h.r.hops++
	h.r.box = append(h.r.box, handoff{to: h.next, at: s.Now() + Time(ringLookahead)})
}

// TestEngineRunAllocs checks that a warm multi-domain Engine.Run
// allocates nothing per call: three domains trade tokens through a
// barrier flush, and the mailbox and event queues are reused.
func TestEngineRunAllocs(t *testing.T) {
	r := &ring{}
	sims := []*Simulator{New(), New(), New()}
	hs := make([]*hopper, len(sims))
	for i, s := range sims {
		hs[i] = &hopper{r: r, sim: s}
	}
	for i, h := range hs {
		h.next = hs[(i+1)%len(hs)]
	}
	flush := func() {
		for _, h := range r.box {
			h.to.sim.AtArgNamed(h.at, "hop", hopEv, Arg{Obj: h.to})
		}
		r.box = r.box[:0]
	}
	e := NewEngine(ringLookahead, flush)
	for i, s := range sims {
		e.AddDomain(&Domain{Name: fmt.Sprintf("d%d", i), Sim: s})
		// Stagger the tokens so every epoch carries traffic.
		s.AtArgNamed(Time(i+1)*Time(ringLookahead)/4, "hop", hopEv, Arg{Obj: hs[i]})
	}
	const span = 10 * ringLookahead
	if err := e.Run(e.Now()+Time(span), 0, nil); err != nil {
		t.Fatalf("warm-up Run: %v", err)
	}
	before := r.hops
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Run(e.Now()+Time(span), 0, nil); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Engine.Run allocates %.1f per call, want 0", allocs)
	}
	// AllocsPerRun makes one extra warm-up call: 101 calls of 10 epochs,
	// each moving all three tokens once per epoch.
	if got, want := r.hops-before, 101*10*len(sims); got != want {
		t.Errorf("%d hops across the measured runs, want %d", got, want)
	}
}
