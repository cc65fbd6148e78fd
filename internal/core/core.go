// Package core implements the paper's contribution: the IDIO
// classifier (NIC-resident, Sec. V-A), the IDIO controller with its
// data plane and control plane (Alg. 1) and per-core FSM (Fig. 8,
// Sec. V-B), and the queued MLC prefetcher (Sec. V-C).
//
// The package is deliberately free of NIC/CPU mechanics: the NIC model
// consults the classifier to tag DMA transactions, and the root complex
// consults the controller to steer each transaction. This mirrors the
// hardware split in Fig. 6.
package core

import (
	"fmt"

	"idio/internal/obs"
	"idio/internal/pcie"
	"idio/internal/sim"
)

// Policy selects which IDIO mechanisms are active, matching the
// evaluation's configurations (Sec. VII):
//
//	DDIO      — everything off (baseline)
//	Invalidate— self-invalidating buffers only
//	Prefetch  — network-driven MLC prefetching only
//	Static    — invalidate + prefetch with status hardwired to MLC
//	IDIO      — invalidate + prefetch with the dynamic FSM
type Policy struct {
	// SelfInvalidate instructs the software stack to invalidate DMA
	// buffers (without writeback) after consumption (Sec. IV-A).
	SelfInvalidate bool
	// MLCPrefetch enables the network-driven prefetching data plane
	// (Sec. IV-B): headers are always hinted, payloads when the
	// per-core status register says MLC.
	MLCPrefetch bool
	// StaticStatus hardwires every core's status register to MLC,
	// bypassing the FSM — the paper's "Static" configuration.
	StaticStatus bool
	// DirectDRAM enables selective direct DRAM access for the payload
	// of appClass-1 packets (Sec. IV-C).
	DirectDRAM bool
}

// Predefined policies for the paper's named configurations.
var (
	PolicyDDIO       = Policy{}
	PolicyInvalidate = Policy{SelfInvalidate: true}
	PolicyPrefetch   = Policy{MLCPrefetch: true}
	PolicyStatic     = Policy{SelfInvalidate: true, MLCPrefetch: true, StaticStatus: true, DirectDRAM: true}
	PolicyIDIO       = Policy{SelfInvalidate: true, MLCPrefetch: true, DirectDRAM: true}
)

// Name returns the evaluation-section name for a policy.
func (p Policy) Name() string {
	switch p {
	case PolicyDDIO:
		return "DDIO"
	case PolicyInvalidate:
		return "Invalidate"
	case PolicyPrefetch:
		return "Prefetch"
	case PolicyStatic:
		return "Static"
	case PolicyIDIO:
		return "IDIO"
	}
	return fmt.Sprintf("custom%+v", p)
}

// --- Classifier (NIC side, Sec. V-A) ---

// ClassifierConfig tunes the NIC-resident classifier.
type ClassifierConfig struct {
	NumCores int
	// RxBurstTHR is the per-core byte threshold within one window that
	// flags a burst. The paper sets it to the bytes of 10 Gbps over
	// 1 µs = 1250 B... (10e9/8 bits/s * 1e-6 s) = 1250 bytes.
	RxBurstTHR uint32
	// Window is the burst-counter reset period (1 µs in the paper).
	Window sim.Duration
	// ClassOneDSCPs lists the DSCP values that mark application
	// class 1 (long use distance).
	ClassOneDSCPs []uint8
}

// DefaultClassifierConfig follows Sec. VI: rxBurstTHR equivalent to
// 10 Gbps over a 1 µs window.
func DefaultClassifierConfig(cores int) ClassifierConfig {
	return ClassifierConfig{
		NumCores:   cores,
		RxBurstTHR: 1250,
		Window:     sim.Microsecond,
	}
}

// Classifier tags each DMA transaction with [appClass, isHeader,
// isBurst, destCore] metadata. Destination-core resolution itself is
// the NIC's job (Flow Director); the classifier consumes its output.
type Classifier struct {
	cfg       ClassifierConfig
	classOne  map[uint8]bool
	byteCount []uint32 // per-core burst counters (32-bit per Sec. V-A)
	winStart  []sim.Time
	exceeded  []bool // current window crossed the threshold
	prevHot   []bool // previous (adjacent) window crossed the threshold
	// BurstsSeen counts burst-arrival notifications (stats).
	BurstsSeen uint64
}

// NewClassifier builds a classifier.
func NewClassifier(cfg ClassifierConfig) *Classifier {
	if cfg.NumCores <= 0 || cfg.NumCores > pcie.MaxCores {
		panic(fmt.Sprintf("core: classifier core count %d out of range", cfg.NumCores))
	}
	if cfg.Window <= 0 {
		panic("core: classifier window must be positive")
	}
	c := &Classifier{
		cfg:       cfg,
		classOne:  make(map[uint8]bool),
		byteCount: make([]uint32, cfg.NumCores),
		winStart:  make([]sim.Time, cfg.NumCores),
		exceeded:  make([]bool, cfg.NumCores),
		prevHot:   make([]bool, cfg.NumCores),
	}
	for _, d := range cfg.ClassOneDSCPs {
		c.classOne[d] = true
	}
	return c
}

// AppClass maps a packet's DSCP to its application class.
func (c *Classifier) AppClass(dscp uint8) uint8 {
	if c.classOne[dscp] {
		return 1
	}
	return 0
}

// AccountPacket updates the destination core's burst counter with the
// packet's bytes at time now and reports whether this packet is a
// burst-ARRIVAL notification. Counters reset every Window, implemented
// lazily from timestamps (equivalent to the hardware's periodic reset
// because only arrivals can change the outcome).
//
// Notification is edge-triggered: it fires on the packet that crosses
// rxBurstTHR in a window whose immediately preceding window was below
// threshold. Sec. V-A says the classifier "notifies IDIO controller of
// a burst arrival"; a level-triggered signal would re-arm the FSM
// every window of a sustained burst and defeat the Fig. 8 regulation
// the evaluation demonstrates (Static vs. IDIO at 100 Gbps), so the
// rising edge is the faithful reading.
func (c *Classifier) AccountPacket(now sim.Time, destCore int, bytes int) bool {
	if now.Sub(c.winStart[destCore]) >= c.cfg.Window {
		// Align the new window to a Window boundary.
		w := int64(c.cfg.Window)
		newStart := sim.Time(int64(now) / w * w)
		// The previous window counts as "hot" only if it is adjacent
		// and crossed the threshold; after an idle gap the history is
		// cold.
		adjacent := newStart == c.winStart[destCore].Add(c.cfg.Window)
		c.prevHot[destCore] = adjacent && c.exceeded[destCore]
		c.winStart[destCore] = newStart
		c.byteCount[destCore] = 0
		c.exceeded[destCore] = false
	}
	c.byteCount[destCore] += uint32(bytes)
	if c.byteCount[destCore] > c.cfg.RxBurstTHR && !c.exceeded[destCore] {
		c.exceeded[destCore] = true
		if !c.prevHot[destCore] {
			c.BurstsSeen++
			return true
		}
	}
	return false
}

// Tag produces the per-transaction metadata for one cacheline of a
// packet. isFirstLine marks the DMA transfer containing the packet's
// first byte (which holds all protocol headers, Sec. V-A).
func (c *Classifier) Tag(appClass uint8, destCore int, isFirstLine, inBurst bool) pcie.Meta {
	return pcie.Meta{
		AppClass: appClass,
		IsHeader: isFirstLine,
		IsBurst:  inBurst,
		DestCore: destCore,
	}
}

// --- Controller (CPU side, Sec. V-B) ---

// Steering is the controller's per-transaction placement decision.
type Steering int

const (
	// SteerLLC write-allocates/updates in the LLC (default DDIO path).
	SteerLLC Steering = iota
	// SteerMLC writes to the LLC and enqueues a prefetch hint toward
	// the destination core's MLC.
	SteerMLC
	// SteerDRAM bypasses the cache hierarchy entirely.
	SteerDRAM
)

func (s Steering) String() string {
	switch s {
	case SteerLLC:
		return "LLC"
	case SteerMLC:
		return "MLC"
	case SteerDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("steer(%d)", int(s))
	}
}

// FSM states (Fig. 8): a 2-bit saturating counter. State 3 means the
// status register reads LLC; any other state reads MLC. A detected
// burst forces state 0.
const (
	fsmMin = 0
	fsmMax = 3
)

// ControllerConfig tunes the IDIO controller.
type ControllerConfig struct {
	NumCores int
	// MLCTHR is the writeback-pressure threshold in transactions per
	// sample interval. The paper's 50 MTPS over 1 µs = 50.
	MLCTHR uint64
	// SampleInterval is the control-plane period (1 µs).
	SampleInterval sim.Duration
	// AvgWindow is how many samples form the long-run average (8192).
	AvgWindow uint64
}

// DefaultControllerConfig follows Sec. V-B / Sec. VI.
func DefaultControllerConfig(cores int) ControllerConfig {
	return ControllerConfig{
		NumCores:       cores,
		MLCTHR:         50,
		SampleInterval: sim.Microsecond,
		AvgWindow:      8192,
	}
}

// WBSampler reads a core's cumulative MLC writeback count; the
// controller samples it each interval (the hierarchy provides this).
type WBSampler func(core int) uint64

// Controller implements Alg. 1. The data plane runs per DMA
// transaction (Steer); the control plane runs on the simulator's
// periodic task (Start).
type Controller struct {
	cfg    ControllerConfig
	policy Policy

	fsmState []int    // per-core 2-bit saturating counter
	lastWB   []uint64 // previous cumulative writeback sample
	mlcWB    []uint64 // writebacks during the last interval
	mlcWBAcc []uint64 // accumulator over AvgWindow samples
	mlcWBAvg []uint64 // average per interval over the last window
	samples  uint64

	sampler WBSampler

	// Stats.
	SteerLLCCount  uint64
	SteerMLCCount  uint64
	SteerDRAMCount uint64
	BurstResets    uint64
	// MisSteers counts transactions whose metadata decoded to an
	// out-of-range destination core (corrupted TLP bits); they fall
	// back to the default DDIO placement.
	MisSteers uint64

	// qosArmed enables per-service-class steering overrides; the
	// arrays index by the TLP's 2-bit QoS field. Disarmed (the
	// default), class bits are ignored and Steer behaves exactly as
	// before.
	qosArmed      bool
	qosDirectDRAM [4]bool
	// QoSDRAMCount counts payload lines sent direct-to-DRAM by class
	// policy (a subset of SteerDRAMCount).
	QoSDRAMCount uint64
}

// NewController builds a controller for the given policy.
func NewController(cfg ControllerConfig, policy Policy, sampler WBSampler) *Controller {
	if cfg.NumCores <= 0 {
		panic("core: controller needs cores")
	}
	if cfg.AvgWindow == 0 {
		panic("core: AvgWindow must be positive")
	}
	c := &Controller{
		cfg:      cfg,
		policy:   policy,
		fsmState: make([]int, cfg.NumCores),
		lastWB:   make([]uint64, cfg.NumCores),
		mlcWB:    make([]uint64, cfg.NumCores),
		mlcWBAcc: make([]uint64, cfg.NumCores),
		mlcWBAvg: make([]uint64, cfg.NumCores),
		sampler:  sampler,
	}
	// Default FSM state is 0b11: prefetching disabled (Fig. 8).
	for i := range c.fsmState {
		c.fsmState[i] = fsmMax
	}
	return c
}

// Policy returns the active policy.
func (c *Controller) Policy() Policy { return c.policy }

// StatusMLC reports whether the core's status register currently reads
// MLC (prefetching enabled).
func (c *Controller) StatusMLC(core int) bool {
	if c.policy.StaticStatus {
		return true
	}
	return c.fsmState[core] != fsmMax
}

// FSMState exposes the raw 2-bit counter (testing/telemetry).
func (c *Controller) FSMState(core int) int { return c.fsmState[core] }

// SetQoSPolicy arms per-class steering: classes flagged directDRAM
// have their payload lines bypass the cache hierarchy regardless of
// burst state. Headers keep the normal path so descriptors and
// protocol headers stay pollable from cache.
func (c *Controller) SetQoSPolicy(directDRAM [4]bool) {
	c.qosArmed = true
	c.qosDirectDRAM = directDRAM
}

// MLCWBAvg exposes the rolling average (testing/telemetry).
func (c *Controller) MLCWBAvg(core int) uint64 { return c.mlcWBAvg[core] }

// Steer implements the data plane of Alg. 1 for one DMA write
// transaction and returns the placement decision.
//
// Metadata arriving over the wire can be corrupted (the reserved TLP
// bits carry no ECC), so an out-of-range destCore is treated as a
// mis-steer: the transaction falls back to the safe DDIO placement
// and is counted rather than indexing out of the per-core state.
func (c *Controller) Steer(m pcie.Meta) Steering {
	if m.AppClass == 0 && (m.DestCore < 0 || m.DestCore >= c.cfg.NumCores) {
		c.MisSteers++
		c.SteerLLCCount++
		return SteerLLC
	}
	// Line 3: a burst notification resets the FSM to state 0.
	if m.IsBurst && m.AppClass == 0 && c.policy.MLCPrefetch && !c.policy.StaticStatus {
		if c.fsmState[m.DestCore] != fsmMin {
			c.BurstResets++
		}
		c.fsmState[m.DestCore] = fsmMin
	}
	// Scavenger-class payload bypasses the caches when QoS is armed;
	// headers keep the normal path (lines 4-5 below) so the polling
	// driver still finds descriptors and headers on chip.
	if c.qosArmed && !m.IsHeader && c.qosDirectDRAM[m.QoS&3] {
		c.QoSDRAMCount++
		c.SteerDRAMCount++
		return SteerDRAM
	}
	switch {
	// Lines 4-5: headers always go toward the MLC.
	case m.IsHeader && c.policy.MLCPrefetch:
		c.SteerMLCCount++
		return SteerMLC
	// Lines 6-7: class-1 payload goes straight to DRAM.
	case m.AppClass == 1 && c.policy.DirectDRAM:
		c.SteerDRAMCount++
		return SteerDRAM
	// Lines 8-9: payload follows the status register.
	case m.AppClass == 0 && c.policy.MLCPrefetch && c.StatusMLC(m.DestCore):
		c.SteerMLCCount++
		return SteerMLC
	// Lines 10-11: default DDIO placement.
	default:
		c.SteerLLCCount++
		return SteerLLC
	}
}

// Start registers the control plane with the simulator: the 1 µs
// pressure sampling loop and the 8192 µs averaging loop of Alg. 1
// (lines 13-24).
func (c *Controller) Start(s *sim.Simulator) {
	if c.sampler == nil {
		panic("core: controller has no writeback sampler")
	}
	s.Every(sim.Time(c.cfg.SampleInterval), c.cfg.SampleInterval, func(*sim.Simulator) {
		c.sampleOnce()
	})
}

// sampleOnce performs one control-plane interval: computes per-core
// MLC pressure, steps the FSM, and maintains the rolling average.
func (c *Controller) sampleOnce() {
	for i := 0; i < c.cfg.NumCores; i++ {
		cum := c.sampler(i)
		c.mlcWB[i] = cum - c.lastWB[i]
		c.lastWB[i] = cum

		press := c.mlcWB[i] > c.mlcWBAvg[i]+c.cfg.MLCTHR
		if press {
			if c.fsmState[i] < fsmMax {
				c.fsmState[i]++
			}
		} else {
			if c.fsmState[i] > fsmMin {
				c.fsmState[i]--
			}
		}
		c.mlcWBAcc[i] += c.mlcWB[i]
	}
	c.samples++
	if c.samples%c.cfg.AvgWindow == 0 {
		for i := 0; i < c.cfg.NumCores; i++ {
			c.mlcWBAvg[i] = c.mlcWBAcc[i] / c.cfg.AvgWindow
			c.mlcWBAcc[i] = 0
		}
	}
}

// --- IAT-style dynamic DDIO-way tuner (prior work baseline) ---

// WayTunerConfig tunes the dynamic DDIO baseline modeled on IAT
// ("Don't forget the I/O when allocating your LLC", ISCA'21), which
// the paper's Shortcoming S1 argues still cannot exploit the MLC: it
// re-sizes the DDIO way allocation from runtime leak monitoring but
// all inbound data stays in the LLC.
type WayTunerConfig struct {
	MinWays, MaxWays int
	// SampleInterval is how often the leak rate is evaluated.
	SampleInterval sim.Duration
	// GrowTHR is the per-interval DMA-leak count above which one more
	// way is granted; ShrinkTHR the count below which one is
	// reclaimed for the applications.
	GrowTHR   uint64
	ShrinkTHR uint64
}

// DefaultWayTunerConfig bounds the allocation between the Skylake
// default (2) and a third of a 12-way LLC. The 20 µs sampling interval
// is fast enough to react within a single 100 Gbps burst's DMA phase
// (~124 µs for a 1024-entry ring), which is where leaks concentrate.
func DefaultWayTunerConfig() WayTunerConfig {
	return WayTunerConfig{
		MinWays:        2,
		MaxWays:        4,
		SampleInterval: 20 * sim.Microsecond,
		GrowTHR:        64,
		ShrinkTHR:      8,
	}
}

// WayTuner periodically adjusts the DDIO way count from the observed
// DMA-leak rate.
type WayTuner struct {
	cfg    WayTunerConfig
	sample func() uint64 // cumulative DMA-leak counter
	set    func(n int)
	cur    int
	last   uint64

	Grows   uint64
	Shrinks uint64
	// PeakWays is the largest allocation reached during the run.
	PeakWays int
}

// NewWayTuner builds a tuner starting at MinWays.
func NewWayTuner(cfg WayTunerConfig, sample func() uint64, set func(n int)) *WayTuner {
	if cfg.MinWays <= 0 || cfg.MaxWays < cfg.MinWays {
		panic("core: bad way tuner bounds")
	}
	if cfg.SampleInterval <= 0 {
		panic("core: way tuner needs a sample interval")
	}
	return &WayTuner{cfg: cfg, sample: sample, set: set, cur: cfg.MinWays, PeakWays: cfg.MinWays}
}

// Ways returns the current allocation.
func (w *WayTuner) Ways() int { return w.cur }

// Start registers the periodic adjustment loop.
func (w *WayTuner) Start(s *sim.Simulator) {
	w.set(w.cur)
	s.Every(sim.Time(w.cfg.SampleInterval), w.cfg.SampleInterval, func(*sim.Simulator) {
		w.step()
	})
}

func (w *WayTuner) step() {
	cum := w.sample()
	leaks := cum - w.last
	w.last = cum
	switch {
	case leaks > w.cfg.GrowTHR && w.cur < w.cfg.MaxWays:
		w.cur++
		w.Grows++
		if w.cur > w.PeakWays {
			w.PeakWays = w.cur
		}
		w.set(w.cur)
	case leaks < w.cfg.ShrinkTHR && w.cur > w.cfg.MinWays:
		w.cur--
		w.Shrinks++
		w.set(w.cur)
	}
}

// --- MLC prefetcher (Sec. V-C) ---

// PrefetchTarget is the hierarchy operation the prefetcher drives.
type PrefetchTarget interface {
	PrefetchToMLC(now sim.Time, coreID int, line uint64) bool
}

// MLCLoadReader is optionally implemented by the target to let an
// adaptive prefetcher observe MLC pressure.
type MLCLoadReader interface {
	MLCLoadFraction(coreID int) float64
}

// PrefetcherConfig tunes one core's queued prefetcher.
type PrefetcherConfig struct {
	// QueueDepth is the hint queue size (32 in Sec. V-C).
	QueueDepth int
	// IssueInterval is the time between successive prefetch issues,
	// modeling the MLC controller's request pacing.
	IssueInterval sim.Duration

	// Adaptive enables the consumption-following refinement the paper
	// sketches as future work (Sec. VII): "a more sophisticated
	// prefetcher that follows the CPU pointer in the ring buffer to
	// regulate the MLC prefetching rate". Instead of tracking the ring
	// pointer directly, the prefetcher pauses while the destination
	// MLC's occupancy is above HighWater, resuming after Backoff —
	// which regulates the prefetch rate to the CPU's consumption rate
	// (self-invalidation is what frees MLC space).
	Adaptive bool
	// HighWater is the MLC load fraction above which an adaptive
	// prefetcher pauses (default 0.6 — leaving headroom below the
	// ~0.8 occupancy where bursty prefetch floods start forcing
	// capacity evictions, so the prefetcher tracks the CPU's
	// consumption instead of racing ahead of it).
	HighWater float64
	// Backoff is how long a paused adaptive prefetcher waits before
	// re-checking (default 8x IssueInterval).
	Backoff sim.Duration
}

// DefaultPrefetcherConfig matches Sec. V-C (32-entry queue) with an
// issue rate of one prefetch per 8 ns (roughly one LLC access).
func DefaultPrefetcherConfig() PrefetcherConfig {
	return PrefetcherConfig{QueueDepth: 32, IssueInterval: 8 * sim.Nanosecond}
}

// Prefetcher is one core's queued MLC prefetcher: hints from the IDIO
// controller enter a fixed-depth queue and issue to the hierarchy at a
// bounded rate. Hints arriving at a full queue are dropped.
type Prefetcher struct {
	cfg    PrefetcherConfig
	coreID int
	target PrefetchTarget
	load   MLCLoadReader // non-nil only for adaptive prefetchers

	// queue is a fixed-capacity ring (head/count) so the per-line
	// enqueue/dequeue cycle never reallocates; issueFn is the issue
	// method bound once, so rescheduling it never closes over p again.
	queue   []uint64
	head    int
	count   int
	busy    bool
	issueFn sim.Event

	HintsQueued  uint64
	HintsDropped uint64
	Issued       uint64
	Throttled    uint64 // adaptive pauses taken

	// classEvery decimates hints per QoS class (HintClass): 0 or 1
	// hints every line, N>1 every Nth line, -1 never. classSeen is
	// the per-class line counter driving the stride; ClassSuppressed
	// counts hints dropped by class policy (distinct from queue-full
	// HintsDropped).
	classEvery      [4]int
	classSeen       [4]uint64
	ClassSuppressed uint64
}

// NewPrefetcher builds a prefetcher for coreID.
func NewPrefetcher(cfg PrefetcherConfig, coreID int, target PrefetchTarget) *Prefetcher {
	if cfg.QueueDepth <= 0 {
		panic("core: prefetcher queue depth must be positive")
	}
	if cfg.IssueInterval <= 0 {
		panic("core: prefetcher issue interval must be positive")
	}
	if cfg.HighWater <= 0 || cfg.HighWater > 1 {
		cfg.HighWater = 0.6
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 8 * cfg.IssueInterval
	}
	p := &Prefetcher{cfg: cfg, coreID: coreID, target: target, queue: make([]uint64, cfg.QueueDepth)}
	p.issueFn = p.issue
	if cfg.Adaptive {
		p.load, _ = target.(MLCLoadReader)
	}
	return p
}

// QueueLen returns the current hint-queue occupancy.
func (p *Prefetcher) QueueLen() int { return p.count }

// Hint enqueues a prefetch for a cacheline; a full queue drops the
// hint (prefetching is best-effort).
func (p *Prefetcher) Hint(s *sim.Simulator, line uint64) {
	if p.count >= p.cfg.QueueDepth {
		p.HintsDropped++
		return
	}
	p.queue[(p.head+p.count)%p.cfg.QueueDepth] = line
	p.count++
	p.HintsQueued++
	if !p.busy {
		p.busy = true
		s.After(p.cfg.IssueInterval, p.issueFn)
	}
}

// SetClassEvery installs per-QoS-class hint decimation strides (see
// classEvery). The zero array keeps every class at full aggressiveness.
func (p *Prefetcher) SetClassEvery(every [4]int) { p.classEvery = every }

// HintClass is Hint under a class's aggressiveness policy: scavenger
// classes (stride -1) never hint, decimated classes (stride N>1) hint
// every Nth line. Class 0 with no policy set behaves exactly as Hint.
func (p *Prefetcher) HintClass(s *sim.Simulator, line uint64, class uint8) {
	every := p.classEvery[class&3]
	if every < 0 {
		p.ClassSuppressed++
		return
	}
	if every > 1 {
		p.classSeen[class&3]++
		if p.classSeen[class&3]%uint64(every) != 0 {
			p.ClassSuppressed++
			return
		}
	}
	p.Hint(s, line)
}

func (p *Prefetcher) issue(s *sim.Simulator) {
	for {
		if p.count == 0 {
			p.busy = false
			return
		}
		// Adaptive regulation: while the MLC is nearly full, hold the
		// queue and retry later — the CPU's consumption (plus
		// self-invalidation) is what drains it.
		if p.load != nil && p.load.MLCLoadFraction(p.coreID) > p.cfg.HighWater {
			p.Throttled++
			s.After(p.cfg.Backoff, p.issueFn)
			return
		}
		line := p.queue[p.head]
		p.head = (p.head + 1) % p.cfg.QueueDepth
		p.count--
		p.target.PrefetchToMLC(s.Now(), p.coreID, line)
		p.Issued++
		if p.count == 0 {
			p.busy = false
			return
		}
		// Drain the queue inline at the paced issue instants.
		// sim.FuseAfter orders each step exactly as the fresh event
		// s.After would schedule, running any event due first in place,
		// and files that event when it cannot continue now.
		if !s.FuseAfter(p.cfg.IssueInterval, p.issueFn) {
			return
		}
	}
}

// RegisterMetrics registers the controller's steering counters under
// prefix (e.g. "ctrl."): mis-steered TLPs and the paper's per-target
// DMA placement counts.
func (c *Controller) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"missteers", func() uint64 { return c.MisSteers })
	reg.CounterFunc(prefix+"steer_llc", func() uint64 { return c.SteerLLCCount })
	reg.CounterFunc(prefix+"steer_mlc", func() uint64 { return c.SteerMLCCount })
	reg.CounterFunc(prefix+"steer_dram", func() uint64 { return c.SteerDRAMCount })
	reg.CounterFunc(prefix+"burst_resets", func() uint64 { return c.BurstResets })
}

// RegisterMetrics registers the classifier's burst-detection counter
// under prefix (e.g. "classifier.").
func (c *Classifier) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"bursts_seen", func() uint64 { return c.BurstsSeen })
}

// RegisterMetrics registers one prefetcher's hint counters under
// prefix (e.g. "prefetch.core0.").
func (p *Prefetcher) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"hints_queued", func() uint64 { return p.HintsQueued })
	reg.CounterFunc(prefix+"hints_dropped", func() uint64 { return p.HintsDropped })
	reg.CounterFunc(prefix+"issued", func() uint64 { return p.Issued })
	reg.CounterFunc(prefix+"throttled", func() uint64 { return p.Throttled })
}
