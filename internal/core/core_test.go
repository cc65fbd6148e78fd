package core

import (
	"testing"
	"testing/quick"

	"idio/internal/pcie"
	"idio/internal/sim"
)

// --- Classifier ---

func TestAppClassFromDSCP(t *testing.T) {
	cfg := DefaultClassifierConfig(4)
	cfg.ClassOneDSCPs = []uint8{46, 10}
	c := NewClassifier(cfg)
	if c.AppClass(46) != 1 || c.AppClass(10) != 1 {
		t.Fatal("listed DSCPs must map to class 1")
	}
	if c.AppClass(0) != 0 || c.AppClass(47) != 0 {
		t.Fatal("unlisted DSCPs must map to class 0")
	}
}

func TestBurstDetectionThreshold(t *testing.T) {
	cfg := DefaultClassifierConfig(2)
	c := NewClassifier(cfg) // 1250 B per 1us window
	now := sim.Time(0)
	if c.AccountPacket(now, 0, 1000) {
		t.Fatal("1000B must not trip a 1250B threshold")
	}
	if !c.AccountPacket(now, 0, 1000) {
		t.Fatal("2000B cumulative must trip the threshold")
	}
	if c.BurstsSeen != 1 {
		t.Fatalf("bursts = %d, want 1", c.BurstsSeen)
	}
	// Per-core isolation: core 1 unaffected.
	if c.AccountPacket(now, 1, 100) {
		t.Fatal("core 1 counter must be independent")
	}
}

func TestBurstCounterResetsAfterIdleGap(t *testing.T) {
	c := NewClassifier(DefaultClassifierConfig(1))
	c.AccountPacket(0, 0, 2000) // burst in window 0
	if c.BurstsSeen != 1 {
		t.Fatal("first burst missed")
	}
	// After an idle window the counter restarts and a new burst can be
	// notified.
	later := sim.Time(2 * sim.Microsecond)
	if c.AccountPacket(later, 0, 1000) {
		t.Fatal("counter must have reset in a new window")
	}
	if !c.AccountPacket(later, 0, 1000) {
		t.Fatal("a fresh burst after idle must notify")
	}
	if c.BurstsSeen != 2 {
		t.Fatalf("bursts = %d, want 2", c.BurstsSeen)
	}
}

func TestBurstNotificationIsEdgeTriggered(t *testing.T) {
	c := NewClassifier(DefaultClassifierConfig(1))
	if !c.AccountPacket(0, 0, 2000) {
		t.Fatal("crossing packet must notify")
	}
	// Later packets in the same window do not re-notify.
	if c.AccountPacket(100, 0, 100) {
		t.Fatal("same-window packets must not re-notify")
	}
	// A sustained burst (adjacent hot windows) does not re-notify
	// either — the FSM stays free to regulate (Fig. 8).
	w1 := sim.Time(sim.Microsecond)
	if c.AccountPacket(w1, 0, 2000) {
		t.Fatal("adjacent hot window must not re-notify")
	}
	w2 := sim.Time(2 * sim.Microsecond)
	if c.AccountPacket(w2, 0, 2000) {
		t.Fatal("sustained burst must not re-notify")
	}
	if c.BurstsSeen != 1 {
		t.Fatalf("bursts = %d, want 1", c.BurstsSeen)
	}
	// After a cold window, the next crossing notifies again.
	w5 := sim.Time(5 * sim.Microsecond)
	if !c.AccountPacket(w5, 0, 2000) {
		t.Fatal("burst after idle gap must notify")
	}
}

func TestClassifierTagProducesMeta(t *testing.T) {
	c := NewClassifier(DefaultClassifierConfig(8))
	m := c.Tag(0, 5, true, false)
	if m.DestCore != 5 || !m.IsHeader || m.IsBurst || m.AppClass != 0 {
		t.Fatalf("meta %+v", m)
	}
	// Tags must round-trip through the TLP encoding.
	tlp, err := pcie.NewWriteTLP(77, m)
	if err != nil {
		t.Fatal(err)
	}
	if tlp.Meta() != m {
		t.Fatalf("TLP round trip %+v", tlp.Meta())
	}
}

func TestClassifierValidation(t *testing.T) {
	for _, cfg := range []ClassifierConfig{
		{NumCores: 0, Window: 1},
		{NumCores: 64, Window: 1},
		{NumCores: 2, Window: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", cfg)
				}
			}()
			NewClassifier(cfg)
		}()
	}
}

// --- Controller ---

func newCtl(policy Policy, wb *[]uint64) *Controller {
	cfg := DefaultControllerConfig(2)
	return NewController(cfg, policy, func(core int) uint64 { return (*wb)[core] })
}

func TestSteerHeaderAlwaysMLC(t *testing.T) {
	wb := []uint64{0, 0}
	c := newCtl(PolicyIDIO, &wb)
	// Even class-1 headers go MLC-ward (Alg. 1 lines 4-5 precede the
	// class check).
	if got := c.Steer(pcie.Meta{AppClass: 1, IsHeader: true}); got != SteerMLC {
		t.Fatalf("class-1 header steered %v", got)
	}
}

func TestSteerClassOnePayloadDRAM(t *testing.T) {
	wb := []uint64{0, 0}
	c := newCtl(PolicyIDIO, &wb)
	if got := c.Steer(pcie.Meta{AppClass: 1}); got != SteerDRAM {
		t.Fatalf("class-1 payload steered %v", got)
	}
	if c.SteerDRAMCount != 1 {
		t.Fatal("stats not counted")
	}
}

func TestSteerPayloadFollowsStatus(t *testing.T) {
	wb := []uint64{0, 0}
	c := newCtl(PolicyIDIO, &wb)
	// Default FSM state 0b11: status LLC.
	if got := c.Steer(pcie.Meta{DestCore: 0}); got != SteerLLC {
		t.Fatalf("default-status payload steered %v", got)
	}
	// A burst resets the FSM: status flips to MLC for that core only.
	if got := c.Steer(pcie.Meta{DestCore: 0, IsBurst: true}); got != SteerMLC {
		t.Fatalf("post-burst payload steered %v", got)
	}
	if got := c.Steer(pcie.Meta{DestCore: 1}); got != SteerLLC {
		t.Fatalf("other core's status must be unaffected: %v", got)
	}
}

func TestDDIOPolicySteersEverythingLLC(t *testing.T) {
	wb := []uint64{0, 0}
	c := newCtl(PolicyDDIO, &wb)
	metas := []pcie.Meta{
		{IsHeader: true},
		{AppClass: 1},
		{IsBurst: true},
		{DestCore: 1},
	}
	for _, m := range metas {
		if got := c.Steer(m); got != SteerLLC {
			t.Fatalf("DDIO policy steered %+v to %v", m, got)
		}
	}
}

func TestStaticPolicyAlwaysMLCForClassZero(t *testing.T) {
	wb := []uint64{0, 0}
	c := newCtl(PolicyStatic, &wb)
	if got := c.Steer(pcie.Meta{DestCore: 0}); got != SteerMLC {
		t.Fatalf("static payload steered %v", got)
	}
	if !c.StatusMLC(0) || !c.StatusMLC(1) {
		t.Fatal("static status must read MLC everywhere")
	}
	// Class-1 payload still goes to DRAM under Static (it enables
	// direct DRAM).
	if got := c.Steer(pcie.Meta{AppClass: 1}); got != SteerDRAM {
		t.Fatalf("static class-1 steered %v", got)
	}
}

func TestFSMSaturatingCounter(t *testing.T) {
	wb := []uint64{0, 0}
	c := newCtl(PolicyIDIO, &wb)
	// Burst: state 0.
	c.Steer(pcie.Meta{DestCore: 0, IsBurst: true})
	if c.FSMState(0) != 0 {
		t.Fatalf("state %d after burst, want 0", c.FSMState(0))
	}
	// Three high-pressure samples saturate at 3 (status LLC).
	for i := 0; i < 5; i++ {
		wb[0] += 100 // 100 WB per 1us > avg(0) + THR(50)
		c.sampleOnce()
	}
	if c.FSMState(0) != 3 || c.StatusMLC(0) {
		t.Fatalf("state %d after pressure, want 3/LLC", c.FSMState(0))
	}
	// Low-pressure samples walk it back to 0 (status MLC).
	for i := 0; i < 5; i++ {
		c.sampleOnce() // no new writebacks
	}
	if c.FSMState(0) != 0 || !c.StatusMLC(0) {
		t.Fatalf("state %d after calm, want 0/MLC", c.FSMState(0))
	}
}

func TestFSMHysteresis(t *testing.T) {
	wb := []uint64{0, 0}
	c := newCtl(PolicyIDIO, &wb)
	c.Steer(pcie.Meta{DestCore: 0, IsBurst: true}) // state 0
	// One high-pressure sample: state 1, still MLC (hysteresis).
	wb[0] += 100
	c.sampleOnce()
	if c.FSMState(0) != 1 || !c.StatusMLC(0) {
		t.Fatalf("state %d, want 1/MLC", c.FSMState(0))
	}
	// Two more: state 3, LLC.
	wb[0] += 100
	c.sampleOnce()
	wb[0] += 100
	c.sampleOnce()
	if c.FSMState(0) != 3 || c.StatusMLC(0) {
		t.Fatalf("state %d, want 3/LLC", c.FSMState(0))
	}
}

// TestFig8TransitionTable drives the 2-bit saturating FSM through its
// complete transition table: from every state, one high-pressure
// sample moves toward 0b11 (saturating) and one low-pressure sample
// moves toward 0b00 (saturating), and a burst notification jumps to
// 0b00 from anywhere.
func TestFig8TransitionTable(t *testing.T) {
	cases := []struct {
		state int
		press bool
		want  int
	}{
		{0, false, 0}, // saturate low
		{0, true, 1},
		{1, false, 0},
		{1, true, 2},
		{2, false, 1},
		{2, true, 3},
		{3, false, 2},
		{3, true, 3}, // saturate high
	}
	for _, c := range cases {
		wb := []uint64{0, 0}
		ctl := newCtl(PolicyIDIO, &wb)
		// Drive the FSM to the starting state: burst reset to 0, then
		// `state` high-pressure samples.
		ctl.Steer(pcie.Meta{DestCore: 0, IsBurst: true})
		for i := 0; i < c.state; i++ {
			wb[0] += 100
			ctl.sampleOnce()
		}
		if ctl.FSMState(0) != c.state {
			t.Fatalf("setup for state %d landed at %d", c.state, ctl.FSMState(0))
		}
		if c.press {
			wb[0] += 100
		}
		ctl.sampleOnce()
		if got := ctl.FSMState(0); got != c.want {
			t.Errorf("state %d press=%v -> %d, want %d", c.state, c.press, got, c.want)
		}
	}
	// Burst jump: from every state a burst notification lands at 0.
	for start := 0; start <= 3; start++ {
		wb := []uint64{0, 0}
		ctl := newCtl(PolicyIDIO, &wb)
		ctl.Steer(pcie.Meta{DestCore: 0, IsBurst: true})
		for i := 0; i < start; i++ {
			wb[0] += 100
			ctl.sampleOnce()
		}
		ctl.Steer(pcie.Meta{DestCore: 0, IsBurst: true})
		if ctl.FSMState(0) != 0 {
			t.Errorf("burst from state %d -> %d, want 0", start, ctl.FSMState(0))
		}
	}
}

// TestAlg1DataPlanePriorities checks the line order of Alg. 1: the
// header rule (lines 4-5) outranks the class rule (6-7), which
// outranks the status rule (8-9), which outranks the default (10-11).
func TestAlg1DataPlanePriorities(t *testing.T) {
	wb := []uint64{0, 0}
	c := newCtl(PolicyIDIO, &wb)
	// status[0] = MLC via burst; status[1] stays LLC.
	c.Steer(pcie.Meta{DestCore: 0, IsBurst: true})
	cases := []struct {
		meta pcie.Meta
		want Steering
	}{
		{pcie.Meta{AppClass: 1, IsHeader: true}, SteerMLC},              // header beats class
		{pcie.Meta{AppClass: 1, DestCore: 0}, SteerDRAM},                // class beats status
		{pcie.Meta{AppClass: 0, DestCore: 0}, SteerMLC},                 // status MLC
		{pcie.Meta{AppClass: 0, DestCore: 1}, SteerLLC},                 // default
		{pcie.Meta{AppClass: 0, DestCore: 1, IsHeader: true}, SteerMLC}, // header always
	}
	for i, tc := range cases {
		if got := c.Steer(tc.meta); got != tc.want {
			t.Errorf("case %d %+v -> %v, want %v", i, tc.meta, got, tc.want)
		}
	}
}

func TestRollingAverageWindow(t *testing.T) {
	wb := []uint64{0, 0}
	cfg := DefaultControllerConfig(2)
	cfg.AvgWindow = 4 // small window for the test
	c := NewController(cfg, PolicyIDIO, func(core int) uint64 { return wb[core] })
	// 4 samples of 10 WB each -> avg 10.
	for i := 0; i < 4; i++ {
		wb[0] += 10
		c.sampleOnce()
	}
	if c.MLCWBAvg(0) != 10 {
		t.Fatalf("avg = %d, want 10", c.MLCWBAvg(0))
	}
	// Pressure threshold is now avg+THR = 60.
	wb[0] += 55
	c.sampleOnce()
	if c.FSMState(0) == fsmMax+1 {
		t.Fatal("impossible state")
	}
	st := c.FSMState(0)
	wb[0] += 61
	c.sampleOnce()
	if c.FSMState(0) <= st && st < fsmMax {
		t.Fatalf("61 WB at avg 10 must raise pressure: %d -> %d", st, c.FSMState(0))
	}
}

func TestControllerControlPlaneRunsOnSim(t *testing.T) {
	wb := []uint64{0, 0}
	cfg := DefaultControllerConfig(2)
	c := NewController(cfg, PolicyIDIO, func(core int) uint64 { return wb[core] })
	s := sim.New()
	c.Start(s)
	s.RunUntil(sim.Time(100 * sim.Microsecond))
	if c.samples != 100 {
		t.Fatalf("samples = %d, want 100", c.samples)
	}
}

// Property: FSM state is always within [0,3] whatever the sample and
// burst sequence.
func TestQuickFSMBounds(t *testing.T) {
	f := func(ops []uint8) bool {
		wb := []uint64{0, 0}
		c := newCtl(PolicyIDIO, &wb)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				c.Steer(pcie.Meta{DestCore: int(op) % 2, IsBurst: true})
			case 1:
				wb[int(op)%2] += uint64(op)
				c.sampleOnce()
			case 2:
				c.sampleOnce()
			}
			for core := 0; core < 2; core++ {
				if s := c.FSMState(core); s < fsmMin || s > fsmMax {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- Prefetcher ---

type fakeTarget struct {
	lines []uint64
	times []sim.Time
}

func (f *fakeTarget) PrefetchToMLC(now sim.Time, coreID int, line uint64) bool {
	f.lines = append(f.lines, line)
	f.times = append(f.times, now)
	return true
}

func TestPrefetcherIssuesInOrderAtRate(t *testing.T) {
	s := sim.New()
	tgt := &fakeTarget{}
	p := NewPrefetcher(PrefetcherConfig{QueueDepth: 32, IssueInterval: 10 * sim.Nanosecond}, 0, tgt, sim.NewGroup(s))
	s.At(0, func(sm *sim.Simulator) {
		for i := uint64(0); i < 5; i++ {
			p.Hint(sm, i)
		}
	})
	s.Run()
	if len(tgt.lines) != 5 {
		t.Fatalf("issued %d, want 5", len(tgt.lines))
	}
	for i, l := range tgt.lines {
		if l != uint64(i) {
			t.Fatalf("issue order %v", tgt.lines)
		}
		want := sim.Time((int64(i) + 1) * 10 * int64(sim.Nanosecond))
		if tgt.times[i] != want {
			t.Fatalf("issue %d at %v, want %v", i, tgt.times[i], want)
		}
	}
	if p.Issued != 5 || p.HintsQueued != 5 || p.HintsDropped != 0 {
		t.Fatalf("stats issued=%d queued=%d dropped=%d", p.Issued, p.HintsQueued, p.HintsDropped)
	}
}

func TestPrefetcherDropsWhenFull(t *testing.T) {
	s := sim.New()
	tgt := &fakeTarget{}
	p := NewPrefetcher(PrefetcherConfig{QueueDepth: 4, IssueInterval: 100 * sim.Nanosecond}, 0, tgt, sim.NewGroup(s))
	s.At(0, func(sm *sim.Simulator) {
		for i := uint64(0); i < 10; i++ {
			p.Hint(sm, i)
		}
	})
	s.Run()
	if p.HintsDropped != 6 {
		t.Fatalf("dropped %d, want 6", p.HintsDropped)
	}
	if len(tgt.lines) != 4 {
		t.Fatalf("issued %d, want 4", len(tgt.lines))
	}
}

func TestPrefetcherRestartsAfterDrain(t *testing.T) {
	s := sim.New()
	tgt := &fakeTarget{}
	p := NewPrefetcher(DefaultPrefetcherConfig(), 1, tgt, sim.NewGroup(s))
	s.At(0, func(sm *sim.Simulator) { p.Hint(sm, 1) })
	s.At(sim.Time(1*sim.Microsecond), func(sm *sim.Simulator) { p.Hint(sm, 2) })
	s.Run()
	if len(tgt.lines) != 2 {
		t.Fatalf("issued %d, want 2", len(tgt.lines))
	}
	if p.QueueLen() != 0 {
		t.Fatal("queue must drain")
	}
}

// loadableTarget is a fake that reports a controllable MLC load.
type loadableTarget struct {
	fakeTarget
	loadFrac float64
}

func (l *loadableTarget) MLCLoadFraction(int) float64 { return l.loadFrac }

func TestAdaptivePrefetcherThrottlesOnHighLoad(t *testing.T) {
	s := sim.New()
	tgt := &loadableTarget{loadFrac: 1.0}
	cfg := PrefetcherConfig{QueueDepth: 8, IssueInterval: 10 * sim.Nanosecond, Adaptive: true}
	p := NewPrefetcher(cfg, 0, tgt, sim.NewGroup(s))
	s.At(0, func(sm *sim.Simulator) {
		p.Hint(sm, 1)
		p.Hint(sm, 2)
	})
	// Lower the load after a while: the queue must then drain.
	s.At(sim.Time(sim.Microsecond), func(*sim.Simulator) { tgt.loadFrac = 0.1 })
	s.RunUntil(sim.Time(10 * sim.Microsecond))
	if p.Throttled == 0 {
		t.Fatal("full MLC must throttle the adaptive prefetcher")
	}
	if len(tgt.lines) != 2 {
		t.Fatalf("queue must drain after load drops: issued %d", len(tgt.lines))
	}
	// Every issue happened after the load dropped.
	for _, at := range tgt.times {
		if at < sim.Time(sim.Microsecond) {
			t.Fatalf("issued at %v while throttled", at)
		}
	}
}

func TestNonAdaptivePrefetcherIgnoresLoad(t *testing.T) {
	s := sim.New()
	tgt := &loadableTarget{loadFrac: 1.0}
	p := NewPrefetcher(PrefetcherConfig{QueueDepth: 8, IssueInterval: 10 * sim.Nanosecond}, 0, tgt, sim.NewGroup(s))
	s.At(0, func(sm *sim.Simulator) { p.Hint(sm, 1) })
	s.RunUntil(sim.Time(sim.Microsecond))
	if p.Throttled != 0 || len(tgt.lines) != 1 {
		t.Fatal("non-adaptive prefetcher must never throttle")
	}
}

func TestSteeringStrings(t *testing.T) {
	if SteerLLC.String() != "LLC" || SteerMLC.String() != "MLC" || SteerDRAM.String() != "DRAM" {
		t.Fatal("steering names")
	}
	if Steering(42).String() == "" {
		t.Fatal("unknown steering must still print")
	}
}

func TestControllerPolicyAccessorAndValidation(t *testing.T) {
	wb := []uint64{0, 0}
	c := newCtl(PolicyStatic, &wb)
	if c.Policy() != PolicyStatic {
		t.Fatal("policy accessor")
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero cores", func() {
		NewController(ControllerConfig{NumCores: 0, AvgWindow: 1}, PolicyIDIO, nil)
	})
	mustPanic("zero window", func() {
		NewController(ControllerConfig{NumCores: 1, AvgWindow: 0}, PolicyIDIO, nil)
	})
	mustPanic("start without sampler", func() {
		ctl := NewController(ControllerConfig{NumCores: 1, AvgWindow: 1, SampleInterval: 1}, PolicyIDIO, nil)
		ctl.Start(sim.New())
	})
}

func TestWayTunerBoundsDirect(t *testing.T) {
	leaks := uint64(0)
	ways := 0
	cfg := DefaultWayTunerConfig()
	w := NewWayTuner(cfg, func() uint64 { return leaks }, func(n int) { ways = n })
	s := sim.New()
	w.Start(s)
	s.RunUntil(0)
	if w.Ways() != cfg.MinWays || ways != cfg.MinWays {
		t.Fatalf("tuner start: %d", ways)
	}
	// Pressure every interval until well past the cap.
	for i := 0; i < 10; i++ {
		leaks += cfg.GrowTHR * 2
		s.RunUntil(sim.Time(int64(i+1) * int64(cfg.SampleInterval)))
	}
	if w.Ways() != cfg.MaxWays || w.PeakWays != cfg.MaxWays {
		t.Fatalf("tuner must cap at %d: %d", cfg.MaxWays, w.Ways())
	}
}

func TestPrefetcherValidation(t *testing.T) {
	for _, cfg := range []PrefetcherConfig{
		{QueueDepth: 0, IssueInterval: 1},
		{QueueDepth: 1, IssueInterval: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", cfg)
				}
			}()
			NewPrefetcher(cfg, 0, &fakeTarget{}, sim.NewGroup(sim.New()))
		}()
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"DDIO":       PolicyDDIO,
		"Invalidate": PolicyInvalidate,
		"Prefetch":   PolicyPrefetch,
		"Static":     PolicyStatic,
		"IDIO":       PolicyIDIO,
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("policy name %q, want %q", p.Name(), want)
		}
	}
}
