package sim

import (
	"errors"
	"math/rand"
	"testing"
)

// TestEngineIdleStopsAtCheckpoint checks that the until-idle predicate
// is consulted only at checkpoint multiples, so an until-idle run stops
// on the 100 µs grid whatever events fall between checkpoints.
func TestEngineIdleStopsAtCheckpoint(t *testing.T) {
	s := New()
	done := false
	s.AtNamed(Time(30*Microsecond), "finish", func(*Simulator) { done = true })
	// Events every 2 µs up to the checkpoint do not add idle checks.
	for at := Time(2 * Microsecond); at < Time(100*Microsecond); at += Time(2 * Microsecond) {
		s.AtNamed(at, "tick", func(*Simulator) {})
	}

	var checkedAt []Time
	stop, err := s.RunCheckpoints(0, Time(1*Millisecond), 100*Microsecond, func() bool {
		checkedAt = append(checkedAt, s.Now())
		return done
	})
	if err != nil {
		t.Fatalf("RunCheckpoints: %v", err)
	}
	// Work finishes at 30 µs, so the first checkpoint (100 µs) already
	// sees the system idle.
	if len(checkedAt) != 1 || checkedAt[0] != Time(100*Microsecond) {
		t.Fatalf("idle checked at %v, want exactly [100µs]", checkedAt)
	}
	if stop != Time(100*Microsecond) || s.Now() != stop {
		t.Errorf("stopped at %v (clock %v), want the 100µs checkpoint", stop, s.Now())
	}
	// A resumed run starts from the checkpoint it stopped at.
	checkedAt = nil
	if stop, err = s.RunCheckpoints(stop, Time(1*Millisecond), 100*Microsecond, func() bool {
		checkedAt = append(checkedAt, s.Now())
		return true
	}); err != nil || stop != Time(200*Microsecond) || len(checkedAt) != 1 {
		t.Errorf("resumed run stopped at %v (err %v) after %d idle checks, want 200µs after 1", stop, err, len(checkedAt))
	}
}

// TestEngineWatchdogAbort checks that a watchdog trip is caught at the
// end of the slice it happened in (RunUntil resets the error on entry,
// so a check only at the end of the run would silently lose it) and
// stops the run short of the horizon.
func TestEngineWatchdogAbort(t *testing.T) {
	s := New()
	s.SetWatchdog(WatchdogConfig{MaxEventsPerInstant: 8})
	// A zero-delay self-rescheduling event trips the no-progress
	// detector partway through the run.
	var spin func(s *Simulator)
	spin = func(s *Simulator) { s.At(s.Now(), spin) }
	s.AtNamed(Time(5*Microsecond), "spin", spin)

	for _, step := range []Duration{0, 2 * Microsecond} {
		stop, err := s.RunCheckpoints(0, Time(1*Millisecond), step, nil)
		if err == nil {
			t.Fatalf("step %v: RunCheckpoints returned nil, want watchdog abort", step)
		}
		var wd *WatchdogError
		if !errors.As(err, &wd) {
			t.Fatalf("step %v: error %v does not wrap *WatchdogError", step, err)
		}
		if s.Err() == nil {
			t.Errorf("step %v: Err() nil after aborted run", step)
		}
		if s.Now() >= Time(1*Millisecond) {
			t.Errorf("step %v: ran to the horizon (%v) despite the abort", step, s.Now())
		}
		if step > 0 && stop != Time(6*Microsecond) {
			t.Errorf("step %v: stopped at %v, want the 6µs slice end", step, stop)
		}
	}
}

// slicingLoop is a reference copy of the until-idle loop that System
// and Cluster ran before RunCheckpoints: run in step slices from time
// zero and stop after the first slice that ends idle or aborted. It
// returns the slice end it stopped at.
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

// TestEngineMatchesSlicingLoop checks that RunCheckpoints, run to the
// horizon rounded up to a checkpoint, stops where the reference
// slicing loop stops: the same instant, the same event count, and the
// same slice end when the watchdog trips.
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
		end := Time(horizon)
		if r := end % Time(step); r != 0 {
			end += Time(step) - r
		}
		stop, err := s.RunCheckpoints(0, end, step, idle)

		if s.Now() != ref.Now() || s.Processed() != ref.Processed() || stop != refStop {
			t.Fatalf("seed %d: stopped at %v (slice end %v) after %d events, slicing loop at %v (slice end %v) after %d",
				seed, s.Now(), stop, s.Processed(), ref.Now(), refStop, ref.Processed())
		}
		if (err != nil) != (ref.Err() != nil) {
			t.Fatalf("seed %d: error %v, slicing loop error %v", seed, err, ref.Err())
		}
		switch {
		case err != nil:
			tripped++
		case stop < end:
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

// hopper is one of a ring of tokens for TestEngineRunAllocs: each hop
// reschedules its successor a quarter checkpoint later.
type hopper struct {
	hops *int
	next *hopper
}

const hopGap = 25 * Microsecond

// hopEv is a package-level handler so scheduling it allocates nothing.
func hopEv(s *Simulator, a Arg) {
	h := a.Obj.(*hopper)
	*h.hops++
	s.AtArgNamed(s.Now()+Time(hopGap), "hop", hopEv, Arg{Obj: h.next})
}

// TestEngineRunAllocs checks that a warm RunCheckpoints allocates
// nothing per call: three tokens hop through every slice, with the
// idle predicate consulted at each checkpoint, and the event queue is
// reused.
func TestEngineRunAllocs(t *testing.T) {
	s := New()
	hops := 0
	hs := []*hopper{{hops: &hops}, {hops: &hops}, {hops: &hops}}
	for i, h := range hs {
		h.next = hs[(i+1)%len(hs)]
		// Stagger the tokens so every slice carries traffic.
		s.AtArgNamed(Time(i+1)*Time(hopGap)/4, "hop", hopEv, Arg{Obj: h})
	}
	const step, span = 100 * Microsecond, 10 * 100 * Microsecond
	idle := func() bool { return false }
	at, err := s.RunCheckpoints(0, Time(span), step, idle)
	if err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	before := hops
	allocs := testing.AllocsPerRun(100, func() {
		if at, err = s.RunCheckpoints(at, at+Time(span), step, idle); err != nil {
			t.Fatalf("RunCheckpoints: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm RunCheckpoints allocates %.1f per call, want 0", allocs)
	}
	// AllocsPerRun makes one extra warm-up call: 101 calls of 1 ms,
	// each token hopping every 25 µs.
	if got, want := hops-before, 101*int(span/hopGap)*len(hs); got != want {
		t.Errorf("%d hops across the measured runs, want %d", got, want)
	}
}
