package fault

import (
	"strings"
	"testing"

	"idio/internal/dram"
	fnet "idio/internal/net"
	"idio/internal/pcie"
	"idio/internal/pkt"
	"idio/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Fatalf("nil config: %v", err)
	}
	good := Config{
		PCIe:      &PCIeConfig{CorruptProb: 0.01, PoisonProb: 0.5},
		DRAMSpike: &DRAMSpikeConfig{Period: sim.Millisecond, Extra: sim.Nanosecond, Length: sim.Microsecond},
		CoreStall: &CoreStallConfig{Period: sim.Millisecond, Stall: sim.Microsecond},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mut    func(*Config)
		substr string
	}{
		{"corrupt prob > 1", func(c *Config) { c.PCIe.CorruptProb = 1.5 }, "CorruptProb"},
		{"poison prob < 0", func(c *Config) { c.PCIe.PoisonProb = -0.1 }, "PoisonProb"},
		{"spike extra", func(c *Config) { c.DRAMSpike.Extra = 0 }, "DRAMSpike.Extra"},
		{"stall period", func(c *Config) { c.CoreStall.Period = 0 }, "CoreStall.Period"},
	}
	for _, tc := range cases {
		c := good // sub-configs are shared pointers; rebuild per case
		c.PCIe = &PCIeConfig{CorruptProb: 0.01, PoisonProb: 0.5}
		c.DRAMSpike = &DRAMSpikeConfig{Period: sim.Millisecond, Extra: sim.Nanosecond, Length: sim.Microsecond}
		c.CoreStall = &CoreStallConfig{Period: sim.Millisecond, Stall: sim.Microsecond}
		tc.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
}

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Fatal("nil config enabled")
	}
	if (&Config{Seed: 7}).Enabled() {
		t.Fatal("seed-only config enabled")
	}
	if !(&Config{PCIe: &PCIeConfig{}}).Enabled() {
		t.Fatal("PCIe config not enabled")
	}
}

// recordingSink captures delivered TLPs.
type recordingSink struct {
	writes []pcie.WriteTLP
	reads  []uint64
}

func (r *recordingSink) DMAWrite(now sim.Time, tlp pcie.WriteTLP) sim.Duration {
	r.writes = append(r.writes, tlp)
	return 0
}

func (r *recordingSink) DMARead(now sim.Time, line uint64) sim.Duration {
	r.reads = append(r.reads, line)
	return 0
}

func TestWrapSinkPassthrough(t *testing.T) {
	next := &recordingSink{}
	in := New(Config{Seed: 1}) // no PCIe faults
	if got := in.WrapSink(next); got != next {
		t.Fatal("WrapSink should return the sink unwrapped when PCIe faults are off")
	}
}

func TestPoisonDiscardsTLP(t *testing.T) {
	next := &recordingSink{}
	in := New(Config{Seed: 1, PCIe: &PCIeConfig{PoisonProb: 1}})
	sink := in.WrapSink(next)
	for i := 0; i < 10; i++ {
		sink.DMAWrite(0, pcie.WriteTLP{LineAddr: uint64(i)})
	}
	if len(next.writes) != 0 {
		t.Fatalf("%d poisoned TLPs reached memory", len(next.writes))
	}
	if got := in.Stats().TLPsPoisoned; got != 10 {
		t.Fatalf("poisoned = %d, want 10", got)
	}
	// Reads pass through untouched.
	sink.DMARead(0, 99)
	if len(next.reads) != 1 {
		t.Fatal("read did not pass through")
	}
}

func TestCorruptFlipsExactlyOneMetaBit(t *testing.T) {
	next := &recordingSink{}
	in := New(Config{Seed: 3, PCIe: &PCIeConfig{CorruptProb: 1}})
	sink := in.WrapSink(next)
	dw, err := pcie.EncodeDW0(pcie.Meta{DestCore: 5, IsHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	orig := pcie.WriteTLP{DW0: dw}
	for i := 0; i < 32; i++ {
		sink.DMAWrite(0, orig)
	}
	if got := in.Stats().TLPsCorrupted; got != 32 {
		t.Fatalf("corrupted = %d, want 32", got)
	}
	for _, tlp := range next.writes {
		diff := tlp.DW0 ^ orig.DW0
		if diff == 0 {
			t.Fatal("corrupted TLP identical to original")
		}
		if diff&(diff-1) != 0 {
			t.Fatalf("more than one bit flipped: %#x", diff)
		}
		// The flipped bit must be one of the IDIO metadata bits.
		found := false
		for _, b := range pcie.MetaBits() {
			if diff == 1<<b {
				found = true
			}
		}
		if !found {
			t.Fatalf("flip %#x is not a metadata bit", diff)
		}
	}
}

// TestCorruptPathAllocatesNothing: corrupting a TLP draws its bit and
// flips it without touching the heap.
func TestCorruptPathAllocatesNothing(t *testing.T) {
	in := New(Config{Seed: 5, PCIe: &PCIeConfig{CorruptProb: 1}})
	sink := in.WrapSink(discardSink{})
	tlp := pcie.WriteTLP{LineAddr: 7}
	if n := testing.AllocsPerRun(100, func() { sink.DMAWrite(0, tlp) }); n != 0 {
		t.Fatalf("corrupt path: %v allocs per TLP, want 0", n)
	}
	if got := in.Stats().TLPsCorrupted; got == 0 {
		t.Fatal("no TLP was corrupted")
	}
}

// discardSink is a nic.Sink that drops everything.
type discardSink struct{}

func (discardSink) DMAWrite(sim.Time, pcie.WriteTLP) sim.Duration { return 0 }
func (discardSink) DMARead(sim.Time, uint64) sim.Duration         { return 0 }

// TestInterposerDeterminism: same seed, same TLP stream — identical
// perturbation decisions.
func TestInterposerDeterminism(t *testing.T) {
	dw, err := pcie.EncodeDW0(pcie.Meta{DestCore: 1, IsBurst: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []uint32 {
		next := &recordingSink{}
		in := New(Config{Seed: 99, PCIe: &PCIeConfig{CorruptProb: 0.3, PoisonProb: 0.2}})
		sink := in.WrapSink(next)
		for i := 0; i < 200; i++ {
			sink.DMAWrite(sim.Time(i), pcie.WriteTLP{LineAddr: uint64(i), DW0: dw})
		}
		var out []uint32
		for _, w := range next.writes {
			out = append(out, w.DW0)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivered %d vs %d TLPs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TLP %d diverged: %#x vs %#x", i, a[i], b[i])
		}
	}
}

// TestDRAMSpikeInjector: the periodic injector opens and closes
// latency-spike windows through the event queue.
func TestDRAMSpikeInjector(t *testing.T) {
	s := sim.New()
	d := dram.New(dram.FlatConfig())
	in := New(Config{Seed: 5, DRAMSpike: &DRAMSpikeConfig{
		Period: 100 * sim.Microsecond,
		Extra:  50 * sim.Nanosecond,
		Length: 10 * sim.Microsecond,
	}})
	in.AttachDRAM(d)
	in.Start(s)
	s.Every(0, sim.Microsecond, func(sm *sim.Simulator) { d.Read(sm.Now(), 1) })
	s.RunUntil(sim.Time(2 * sim.Millisecond))
	st := in.Stats()
	if st.DRAMSpikes == 0 {
		t.Fatal("no spikes injected")
	}
	if d.PenalizedAccesses() == 0 {
		t.Fatal("no access paid the injected penalty")
	}
	if d.PenalizedAccesses() >= d.Reads() {
		t.Fatalf("penalty stuck on: %d of %d reads penalized", d.PenalizedAccesses(), d.Reads())
	}
}

// TestTimelineValidate covers every timeline constraint with one case
// per error message.
func TestTimelineValidate(t *testing.T) {
	ms := sim.Millisecond
	at := func(msAt float64) sim.Time { return sim.Time(msAt * float64(ms)) }
	good := []Phase{
		{Layer: "fabric", Kind: "degrade", Start: at(1), Duration: ms, Magnitude: 0.25},
		{Layer: "fabric", Kind: "down", Start: at(1), Duration: ms, Target: 1},
		{Layer: "nic", Kind: "dma-stall", Start: at(3), Duration: ms},
		{Layer: "dram", Kind: "spike", Start: at(4), Duration: ms, Magnitude: 100},
		{Layer: "core", Kind: "stall", Start: at(5), Duration: ms, Target: 1},
		{Layer: "fabric", Kind: "down", Start: at(6), Duration: ms, Target: 1},
	}
	if err := (&Config{Timeline: good}).Validate(); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	cases := []struct {
		name   string
		tl     []Phase
		substr string
	}{
		{"unknown layer",
			[]Phase{{Layer: "disk", Kind: "down", Duration: ms}},
			`Timeline[0] unknown layer/kind "disk"/"down"`},
		{"unknown kind",
			[]Phase{{Layer: "fabric", Kind: "spike", Duration: ms}},
			`Timeline[0] unknown layer/kind "fabric"/"spike"`},
		{"negative start",
			[]Phase{{Layer: "fabric", Kind: "down", Start: -1, Duration: ms}},
			"Timeline[0] start"},
		{"zero duration",
			[]Phase{{Layer: "nic", Kind: "dma-stall", Start: at(1)}},
			"Timeline[0] duration 0 must be positive"},
		{"negative duration",
			[]Phase{{Layer: "core", Kind: "stall", Start: at(1), Duration: -ms}},
			"must be positive"},
		{"negative target",
			[]Phase{{Layer: "core", Kind: "stall", Duration: ms, Target: -1}},
			"Timeline[0] target -1"},
		{"degrade magnitude zero",
			[]Phase{{Layer: "fabric", Kind: "degrade", Duration: ms}},
			"fabric/degrade magnitude 0 outside (0,1)"},
		{"degrade magnitude one",
			[]Phase{{Layer: "fabric", Kind: "degrade", Duration: ms, Magnitude: 1}},
			"fabric/degrade magnitude"},
		{"dram magnitude missing",
			[]Phase{{Layer: "dram", Kind: "spike", Duration: ms}},
			"dram/spike magnitude"},
		{"overlap same layer and target",
			[]Phase{
				{Layer: "fabric", Kind: "down", Start: at(1), Duration: 2 * ms},
				{Layer: "fabric", Kind: "degrade", Start: at(2), Duration: 2 * ms, Magnitude: 0.5},
			},
			"Timeline[1] overlaps Timeline[0] on fabric target 0"},
		{"dram phases always share the device",
			[]Phase{
				{Layer: "dram", Kind: "spike", Start: at(1), Duration: 2 * ms, Magnitude: 10},
				{Layer: "dram", Kind: "spike", Start: at(2), Duration: ms, Magnitude: 10, Target: 7},
			},
			"Timeline[1] overlaps Timeline[0] on dram"},
	}
	for _, tc := range cases {
		err := (&Config{Timeline: tc.tl}).Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
	// Concurrent phases on DIFFERENT targets of the same layer are
	// legal — that is how multi-link chaos scenarios are written.
	disjoint := []Phase{
		{Layer: "fabric", Kind: "down", Start: at(1), Duration: ms, Target: 0},
		{Layer: "fabric", Kind: "down", Start: at(1), Duration: ms, Target: 1},
	}
	if err := (&Config{Timeline: disjoint}).Validate(); err != nil {
		t.Fatalf("different-target concurrent phases rejected: %v", err)
	}
	if !(&Config{Timeline: disjoint}).Enabled() {
		t.Fatal("timeline-only config not Enabled")
	}
}

// nullEndpoint terminates fabric packets (timeline phase test).
type nullEndpoint struct{}

func (nullEndpoint) Receive(_ *sim.Simulator, p *pkt.Packet) { p.Release() }

// TestTimelineFabricPhase drives one scheduled fabric/down phase
// against an attached link and checks the full lifecycle: applied at
// Start, reverted at Start+Duration, counted once — and a phase whose
// target has no attached victim is skipped without effect.
func TestTimelineFabricPhase(t *testing.T) {
	s := sim.New()
	link := fnet.NewLink(fnet.LinkConfig{Name: "l0", RateBps: 100e9}, nullEndpoint{})
	in := New(Config{Timeline: []Phase{
		{Layer: "fabric", Kind: "down", Start: sim.Time(10 * sim.Microsecond), Duration: 20 * sim.Microsecond},
		{Layer: "fabric", Kind: "degrade", Start: sim.Time(50 * sim.Microsecond), Duration: 10 * sim.Microsecond, Magnitude: 0.5, Target: 9},
	}})
	in.AttachLink(link)
	in.Start(s)

	down := map[sim.Time]bool{}
	for _, at := range []sim.Time{
		sim.Time(5 * sim.Microsecond),  // before the phase
		sim.Time(15 * sim.Microsecond), // inside it
		sim.Time(45 * sim.Microsecond), // after the revert
		sim.Time(55 * sim.Microsecond), // inside the skipped phase's span
	} {
		at := at
		s.At(at, func(*sim.Simulator) { down[at] = link.Down() })
	}
	s.RunUntil(sim.Time(100 * sim.Microsecond))

	if down[sim.Time(5*sim.Microsecond)] || !down[sim.Time(15*sim.Microsecond)] || down[sim.Time(45*sim.Microsecond)] {
		t.Fatalf("down-phase lifecycle wrong: %v", down)
	}
	if f := link.RateFactor(); f != 1 {
		t.Fatalf("degrade phase with no attached target %d changed the rate factor to %v", 9, f)
	}
	st := in.Stats()
	if st.TimelinePhases != 1 || st.FabricFlaps != 1 || st.FabricDegrades != 0 {
		t.Fatalf("phases=%d flaps=%d degrades=%d; want 1/1/0 (second phase skipped)",
			st.TimelinePhases, st.FabricFlaps, st.FabricDegrades)
	}
	if st.Total() != 1 {
		t.Fatalf("Total %d, want 1 (timeline phases fold into their kind counters)", st.Total())
	}
}
