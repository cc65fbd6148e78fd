// Package fault is the deterministic fault-injection layer: seedable
// injectors that perturb every level of the simulated system — PCIe
// (corrupted metadata bits, poisoned write TLPs), the NIC (scheduled
// paced-DMA stalls), memory (transient DRAM latency spikes), the CPU
// (slow-core stalls that starve polling loops) and the fabric (link
// flaps and rate degradation).
//
// Two properties make the layer a measurement instrument rather than
// a chaos monkey:
//
//  1. Determinism. Every random decision is drawn from one seeded
//     generator, and every perturbation is delivered through the
//     sim.Simulator event queue, whose same-instant FIFO ordering is
//     reproducible. Two runs with the same seed and configuration are
//     bit-identical (determinism_test.go asserts this).
//  2. Accounting. Each injector counts what it perturbed
//     (internal/stats counters, snapshotted by Stats), so degradation
//     experiments can correlate injected adversity with observed
//     drops, latency, and writeback inflation.
//
// Wiring: idio.Config.Faults enables the layer; idio.NewSystem builds
// the Injector, interposes it on the NIC→root-complex PCIe path
// (WrapSink), attaches the NIC, DRAM and cores, and starts the
// periodic injectors and the timeline alongside the cores.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"idio/internal/dram"
	fnet "idio/internal/net"
	"idio/internal/nic"
	"idio/internal/pcie"
	"idio/internal/sim"
	"idio/internal/stats"
)

// PCIeConfig perturbs individual inbound write TLPs. Probabilities
// are per transaction (one cacheline each), drawn in arrival order.
type PCIeConfig struct {
	// CorruptProb is the probability a TLP's IDIO metadata suffers a
	// single-bit flip in the reserved DW0 bits — exercising the
	// classifier consumer's mis-steer handling (wrong destination
	// core, spurious isHeader/isBurst, flipped app class).
	CorruptProb float64
	// PoisonProb is the probability a write TLP arrives poisoned (EP
	// bit set); the root complex discards it, so the line never lands
	// in memory and the packet is delivered torn.
	PoisonProb float64
}

// DRAMSpikeConfig schedules transient memory-latency spikes: roughly
// every Period, each access pays Extra additional latency for Length
// (refresh storms, thermal throttling, channel contention).
type DRAMSpikeConfig struct {
	Period sim.Duration
	Extra  sim.Duration
	Length sim.Duration
}

// FabricFlapConfig schedules fabric link flaps: roughly every Period
// one attached fabric link (a client uplink or the server downlink)
// goes down for Down. Packets arriving while down are lost on the
// wire and count as the link's DownDrops.
type FabricFlapConfig struct {
	Period sim.Duration
	Down   sim.Duration
}

// FabricDegradeConfig schedules transient fabric link-rate
// degradation: roughly every Period one attached link's effective
// rate drops to Factor of nominal for Length (auto-negotiation
// fallback, a congested upstream port, a flaky optic).
type FabricDegradeConfig struct {
	Period sim.Duration
	Factor float64
	Length sim.Duration
}

// CoreStallConfig schedules slow-core stalls: roughly every Period
// one core's driver loop, drawn pseudo-randomly from the attached
// cores, freezes for Stall while the NIC keeps producing into its
// ring.
type CoreStallConfig struct {
	Period sim.Duration
	Stall  sim.Duration
}

// Phase is one scheduled entry of a fault timeline: a perturbation of
// one layer that begins at a fixed simulation time, persists for a
// fixed duration, and then clears. Unlike the periodic injectors,
// timeline phases draw nothing from the random generator — the whole
// schedule is declared up front, so chaos experiments can measure
// degradation AND recovery against known fault boundaries.
type Phase struct {
	// Layer and Kind name the perturbation. Supported pairs:
	//
	//	fabric / down      — attached fabric link Target held down
	//	fabric / degrade   — link Target's rate scaled to Magnitude (0,1)
	//	nic    / dma-stall — the NIC's DMA engine held for Duration
	//	dram   / spike     — Magnitude ns of extra latency per access
	//	core   / stall     — core Target's driver loop frozen for Duration
	Layer string
	Kind  string
	// Start is when the phase begins; Duration how long it persists.
	Start    sim.Time
	Duration sim.Duration
	// Magnitude parameterises the perturbation: the rate factor in
	// (0,1) for fabric/degrade, the extra latency in nanoseconds for
	// dram/spike. Unused (and ignored) by the other kinds.
	Magnitude float64
	// Target selects the victim: a fabric link by attach order, a
	// core by its id; the one NIC port is target 0. Ignored for dram.
	// A target with no attached victim skips the phase.
	Target int
}

// phaseKinds maps every supported layer to its kinds.
var phaseKinds = map[string][]string{
	"fabric": {"down", "degrade"},
	"nic":    {"dma-stall"},
	"dram":   {"spike"},
	"core":   {"stall"},
}

// validKind reports whether layer/kind is a supported pair.
func validKind(layer, kind string) bool {
	for _, k := range phaseKinds[layer] {
		if k == kind {
			return true
		}
	}
	return false
}

// Config aggregates every injector. Nil sub-configs are disabled; the
// zero value injects nothing.
type Config struct {
	// Seed drives every random decision. Two runs with equal Config
	// (and an otherwise deterministic system) are bit-identical.
	Seed int64

	PCIe          *PCIeConfig
	DRAMSpike     *DRAMSpikeConfig
	CoreStall     *CoreStallConfig
	FabricFlap    *FabricFlapConfig
	FabricDegrade *FabricDegradeConfig

	// Timeline schedules deterministic fault phases alongside (or
	// instead of) the periodic injectors.
	Timeline []Phase
}

// Enabled reports whether any injector is configured.
func (c *Config) Enabled() bool {
	return c != nil && (c.PCIe != nil || c.DRAMSpike != nil || c.CoreStall != nil ||
		c.FabricFlap != nil || c.FabricDegrade != nil || len(c.Timeline) > 0)
}

// Validate checks every enabled injector's parameters, returning one
// error per problem (joined).
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	var errs []error
	bad := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf("fault: "+format, args...))
	}
	if p := c.PCIe; p != nil {
		if p.CorruptProb < 0 || p.CorruptProb > 1 {
			bad("PCIe.CorruptProb %v outside [0,1]", p.CorruptProb)
		}
		if p.PoisonProb < 0 || p.PoisonProb > 1 {
			bad("PCIe.PoisonProb %v outside [0,1]", p.PoisonProb)
		}
	}
	if d := c.DRAMSpike; d != nil {
		if d.Period <= 0 {
			bad("DRAMSpike.Period %v must be positive", d.Period)
		}
		if d.Extra <= 0 {
			bad("DRAMSpike.Extra %v must be positive", d.Extra)
		}
		if d.Length <= 0 {
			bad("DRAMSpike.Length %v must be positive", d.Length)
		}
	}
	if cs := c.CoreStall; cs != nil {
		if cs.Period <= 0 {
			bad("CoreStall.Period %v must be positive", cs.Period)
		}
		if cs.Stall <= 0 {
			bad("CoreStall.Stall %v must be positive", cs.Stall)
		}
	}
	if f := c.FabricFlap; f != nil {
		if f.Period <= 0 {
			bad("FabricFlap.Period %v must be positive", f.Period)
		}
		if f.Down <= 0 {
			bad("FabricFlap.Down %v must be positive", f.Down)
		}
	}
	if d := c.FabricDegrade; d != nil {
		if d.Period <= 0 {
			bad("FabricDegrade.Period %v must be positive", d.Period)
		}
		if d.Factor <= 0 || d.Factor >= 1 {
			bad("FabricDegrade.Factor %v outside (0,1)", d.Factor)
		}
		if d.Length <= 0 {
			bad("FabricDegrade.Length %v must be positive", d.Length)
		}
	}
	for i, ph := range c.Timeline {
		if !validKind(ph.Layer, ph.Kind) {
			bad("Timeline[%d] unknown layer/kind %q/%q", i, ph.Layer, ph.Kind)
			continue
		}
		if ph.Start < 0 {
			bad("Timeline[%d] start %v must be >= 0", i, ph.Start)
		}
		if ph.Duration <= 0 {
			bad("Timeline[%d] duration %v must be positive", i, ph.Duration)
		}
		if ph.Target < 0 {
			bad("Timeline[%d] target %d must be >= 0", i, ph.Target)
		}
		switch {
		case ph.Layer == "fabric" && ph.Kind == "degrade":
			if ph.Magnitude <= 0 || ph.Magnitude >= 1 {
				bad("Timeline[%d] fabric/degrade magnitude %v outside (0,1)", i, ph.Magnitude)
			}
		case ph.Layer == "dram":
			if ph.Magnitude <= 0 {
				bad("Timeline[%d] dram/spike magnitude %v ns must be positive", i, ph.Magnitude)
			}
		}
		// Two phases on the same target of the same layer must not
		// overlap: the second's revert would clear (or double-apply)
		// the first's perturbation mid-window.
		for j := 0; j < i; j++ {
			prev := c.Timeline[j]
			// All dram phases share the one memory device regardless of
			// their Target field.
			sameTarget := prev.Target == ph.Target || ph.Layer == "dram"
			if prev.Layer != ph.Layer || !sameTarget || !validKind(prev.Layer, prev.Kind) {
				continue
			}
			if prev.Duration <= 0 || ph.Duration <= 0 {
				continue // already reported above
			}
			if ph.Start < prev.Start.Add(prev.Duration) && prev.Start < ph.Start.Add(ph.Duration) {
				bad("Timeline[%d] overlaps Timeline[%d] on %s target %d", i, j, ph.Layer, ph.Target)
			}
		}
	}
	return errors.Join(errs...)
}

// Stats is a snapshot of everything the injectors perturbed.
type Stats struct {
	TLPsCorrupted  uint64 // metadata bit flips delivered
	TLPsPoisoned   uint64 // write TLPs discarded at the root complex
	DMAStalls      uint64 // DMA-engine holds issued
	DRAMSpikes     uint64 // latency-spike windows opened
	CoreStalls     uint64 // slow-core stalls issued
	FabricFlaps    uint64 // fabric link-down windows opened
	FabricDegrades uint64 // fabric link-rate degradation windows opened
	// TimelinePhases counts scheduled timeline phases applied (each
	// phase also increments its kind's counter above, so Total stays
	// the sum of individual perturbations).
	TimelinePhases uint64
}

// Total sums every perturbation count (spike/flap windows count once).
func (s Stats) Total() uint64 {
	return s.TLPsCorrupted + s.TLPsPoisoned + s.DMAStalls + s.DRAMSpikes +
		s.CoreStalls + s.FabricFlaps + s.FabricDegrades
}

// Injector owns the seeded generator and the component handles, and
// delivers every perturbation through the simulator's event queue.
type Injector struct {
	cfg Config
	rng *rand.Rand

	port *nic.NIC
	mem  *dram.DRAM
	// cores are the attached cores in attach order, coreIDs their ids.
	cores   []Staller
	coreIDs []int
	links   []*fnet.Link

	tlpsCorrupted  stats.Counter
	tlpsPoisoned   stats.Counter
	dmaStalls      stats.Counter
	dramSpikes     stats.Counter
	coreStalls     stats.Counter
	fabricFlaps    stats.Counter
	fabricDegrades stats.Counter
	timelinePhases stats.Counter

	started bool
}

// New builds an injector; the configuration must already have passed
// Validate.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// AttachPort registers the host's NIC port, the target of nic
// timeline phases.
func (in *Injector) AttachPort(n *nic.NIC) { in.port = n }

// AttachDRAM registers the memory device for latency spikes.
func (in *Injector) AttachDRAM(d *dram.DRAM) { in.mem = d }

// Staller is a core whose driver loop a slow-core stall can freeze
// (cpu.Core).
type Staller interface {
	InjectStall(now sim.Time, d sim.Duration)
}

// AttachCore registers core id as a slow-core stall target. Periodic
// stalls draw their victim by attach order; a core phase names its
// victim by id.
func (in *Injector) AttachCore(id int, c Staller) {
	in.cores = append(in.cores, c)
	in.coreIDs = append(in.coreIDs, id)
}

// AttachLink registers a fabric link as a flap / rate-degradation
// target. Attach before Start, in deterministic order (the rng picks
// victims by index).
func (in *Injector) AttachLink(l *fnet.Link) { in.links = append(in.links, l) }

// Stats snapshots the perturbation counters.
func (in *Injector) Stats() Stats {
	return Stats{
		TLPsCorrupted:  in.tlpsCorrupted.Value(),
		TLPsPoisoned:   in.tlpsPoisoned.Value(),
		DMAStalls:      in.dmaStalls.Value(),
		DRAMSpikes:     in.dramSpikes.Value(),
		CoreStalls:     in.coreStalls.Value(),
		FabricFlaps:    in.fabricFlaps.Value(),
		FabricDegrades: in.fabricDegrades.Value(),
		TimelinePhases: in.timelinePhases.Value(),
	}
}

// --- PCIe interposition ---

// sinkInterposer sits between the NIC's DMA engine and the root
// complex, perturbing write TLPs per the PCIe config. Reads pass
// through untouched (read completions are CRC-protected end to end).
type sinkInterposer struct {
	next nic.Sink
	in   *Injector
}

// WrapSink interposes the injector on a NIC→root-complex path. With
// no PCIe faults configured the sink is returned unwrapped, so the
// happy path costs nothing.
func (in *Injector) WrapSink(next nic.Sink) nic.Sink {
	if in.cfg.PCIe == nil {
		return next
	}
	return &sinkInterposer{next: next, in: in}
}

// DMAWrite implements nic.Sink.
func (si *sinkInterposer) DMAWrite(now sim.Time, tlp pcie.WriteTLP) sim.Duration {
	cfg := si.in.cfg.PCIe
	// Draw in fixed order (poison, then corrupt) so the decision
	// stream is reproducible regardless of probabilities.
	poisoned := cfg.PoisonProb > 0 && si.in.rng.Float64() < cfg.PoisonProb
	corrupted := cfg.CorruptProb > 0 && si.in.rng.Float64() < cfg.CorruptProb
	if poisoned {
		si.in.tlpsPoisoned.Inc()
		return 0 // discarded at the root complex: never touches memory
	}
	if corrupted {
		tlp = tlp.FlipMetaBit(si.in.rng.Intn(pcie.NumMetaBits))
		si.in.tlpsCorrupted.Inc()
	}
	return si.next.DMAWrite(now, tlp)
}

// DMARead implements nic.Sink.
func (si *sinkInterposer) DMARead(now sim.Time, line uint64) sim.Duration {
	return si.next.DMARead(now, line)
}

// --- periodic injectors ---

// jitter returns a uniformly random duration in [period/2, 3*period/2)
// so periodic faults do not phase-lock with the workload's own
// periodicity (bursts, control-plane loops).
func (in *Injector) jitter(period sim.Duration) sim.Duration {
	half := int64(period) / 2
	if half <= 0 {
		return period
	}
	return sim.Duration(half + in.rng.Int63n(2*half))
}

// chain schedules fn roughly every period (with jitter), rescheduling
// itself through the event queue forever.
func (in *Injector) chain(s *sim.Simulator, period sim.Duration, fn func(sm *sim.Simulator)) {
	var tick sim.Event
	tick = func(sm *sim.Simulator) {
		fn(sm)
		sm.After(in.jitter(period), tick)
	}
	s.After(in.jitter(period), tick)
}

// Start schedules every configured periodic injector. Call it once,
// after every target is attached (idio.System.Start does). The PCIe
// interposer needs no start — it perturbs inline.
func (in *Injector) Start(s *sim.Simulator) {
	if in.started {
		return
	}
	in.started = true
	if d := in.cfg.DRAMSpike; d != nil && in.mem != nil {
		in.chain(s, d.Period, func(sm *sim.Simulator) {
			if in.mem.ExtraLatency() > 0 {
				return // a spike is already active; skip overlap
			}
			in.mem.SetExtraLatency(d.Extra)
			in.dramSpikes.Inc()
			sm.After(d.Length, func(*sim.Simulator) { in.mem.SetExtraLatency(0) })
		})
	}
	if f := in.cfg.FabricFlap; f != nil && len(in.links) > 0 {
		in.chain(s, f.Period, func(sm *sim.Simulator) {
			link := in.links[in.rng.Intn(len(in.links))]
			if link.Down() {
				return // already down from an overlapping flap
			}
			link.SetDown(true)
			in.fabricFlaps.Inc()
			sm.After(f.Down, func(*sim.Simulator) { link.SetDown(false) })
		})
	}
	if d := in.cfg.FabricDegrade; d != nil && len(in.links) > 0 {
		in.chain(s, d.Period, func(sm *sim.Simulator) {
			link := in.links[in.rng.Intn(len(in.links))]
			if link.RateFactor() != 1 {
				return // a degradation window is already active
			}
			link.SetRateFactor(d.Factor)
			in.fabricDegrades.Inc()
			sm.After(d.Length, func(*sim.Simulator) { link.SetRateFactor(1) })
		})
	}
	if cs := in.cfg.CoreStall; cs != nil && len(in.cores) > 0 {
		in.chain(s, cs.Period, func(sm *sim.Simulator) {
			in.cores[in.rng.Intn(len(in.cores))].InjectStall(sm.Now(), cs.Stall)
			in.coreStalls.Inc()
		})
	}
	// Timeline phases draw nothing from the rng; same-instant phases
	// run in declaration order.
	for i := range in.cfg.Timeline {
		ph := in.cfg.Timeline[i]
		s.AtNamed(ph.Start, "fault-phase", func(sm *sim.Simulator) {
			in.applyPhase(sm, ph)
		})
	}
}

// applyPhase fires one timeline phase at its start instant: apply the
// perturbation, and (for the stateful kinds) schedule the revert at
// start+duration. Phases draw nothing from the rng, so a timeline is
// deterministic regardless of what else is configured.
func (in *Injector) applyPhase(sm *sim.Simulator, ph Phase) {
	switch ph.Layer {
	case "fabric":
		if ph.Target >= len(in.links) {
			return
		}
		link := in.links[ph.Target]
		switch ph.Kind {
		case "down":
			link.SetDown(true)
			in.fabricFlaps.Inc()
			sm.After(ph.Duration, func(*sim.Simulator) { link.SetDown(false) })
		case "degrade":
			link.SetRateFactor(ph.Magnitude)
			in.fabricDegrades.Inc()
			sm.After(ph.Duration, func(*sim.Simulator) { link.SetRateFactor(1) })
		default:
			return
		}
	case "nic":
		if ph.Target != 0 || in.port == nil {
			return
		}
		in.port.StallDMA(sm.Now(), ph.Duration)
		in.dmaStalls.Inc()
	case "dram":
		if in.mem == nil {
			return
		}
		mem := in.mem
		mem.SetExtraLatency(sim.Duration(ph.Magnitude * float64(sim.Nanosecond)))
		in.dramSpikes.Inc()
		sm.After(ph.Duration, func(*sim.Simulator) { mem.SetExtraLatency(0) })
	case "core":
		i := slices.Index(in.coreIDs, ph.Target)
		if i < 0 {
			return
		}
		in.cores[i].InjectStall(sm.Now(), ph.Duration)
		in.coreStalls.Inc()
	default:
		return
	}
	in.timelinePhases.Inc()
}
