// Package cpu models the processing side of the system: a per-core
// polling-mode driver (PMD) in the style of DPDK, batch packet
// processing with run-to-completion semantics (Sec. II-B, mode M3),
// and the glue that lets network-function models touch memory through
// the simulated cache hierarchy.
//
// Timing model: each packet costs a fixed instruction overhead
// (PerPacketCycles, covering driver + application compute) plus the
// accumulated latency of its memory accesses, which are resolved
// against the hierarchy. Packets are processed one per simulator event
// so DMA traffic and CPU progress interleave at sub-microsecond
// granularity — the interleaving that produces the DMA-phase /
// execution-phase dynamics of Fig. 5 and Fig. 9.
package cpu

import (
	"idio/internal/hier"
	"idio/internal/mem"
	"idio/internal/nic"
	"idio/internal/obs"
	"idio/internal/sim"
	"idio/internal/stats"
)

// Driver selects the notification model (Sec. II-A: completions can
// be signalled by interrupts or detected by a polling-mode driver).
type Driver int

const (
	// DriverPolling is the DPDK-style PMD: the core spins, re-polling
	// every PollInterval when idle.
	DriverPolling Driver = iota
	// DriverInterrupt is a NAPI-style driver: the core sleeps until
	// the NIC's completion interrupt fires, pays IRQLatency to wake,
	// processes until the ring drains, then re-arms the interrupt.
	DriverInterrupt
)

// Config tunes one processing core.
type Config struct {
	// Driver selects polling or interrupt notification.
	Driver Driver
	// IRQLatency is the wake-up cost in interrupt mode (context
	// switch + handler entry).
	IRQLatency sim.Duration
	// BatchSize is the PMD burst size (DPDK default 32).
	BatchSize int
	// PollInterval is the idle re-poll spacing.
	PollInterval sim.Duration
	// PerPacketCycles is the fixed instruction cost per packet
	// (driver + application compute, excluding memory stalls).
	PerPacketCycles int64
	// MSHRs bounds how many of a packet's line fetches may overlap
	// (memory-level parallelism). 1 serialises every access — the
	// calibrated default for this repo's service-time model; Table I's
	// out-of-order cores sustain up to 32. The MLP ablation shows how
	// overlap compresses cache-placement effects into smaller
	// execution-time deltas.
	MSHRs int
	// InvalCyclesPerLine is the instruction cost of the
	// multi-cacheline invalidate (Sec. V-D) charged per invalidated
	// line when the core self-invalidates (see NewCore) — the
	// mechanism is cheap but not free.
	InvalCyclesPerLine int64
}

// DefaultConfig reflects the DPDK setup of Sec. VI on the Table I
// core: 32-packet bursts and a per-packet cost calibrated so a single
// core saturates at ~12 Gbps of MTU traffic (the drop threshold the
// paper reports).
func DefaultConfig() Config {
	return Config{
		Driver:          DriverPolling,
		IRQLatency:      3 * sim.Microsecond,
		BatchSize:       32,
		PollInterval:    200 * sim.Nanosecond,
		PerPacketCycles: 1800,
		MSHRs:           1,
		// One cycle per line: the multi-cacheline invalidate iterates
		// set lookups but needs no data movement.
		InvalCyclesPerLine: 1,
	}
}

// App is a network-function model. OnPacket performs the packet's
// memory accesses through env and returns any additional processing
// latency beyond env-accumulated memory time, plus whether the slot's
// release is deferred (the app will call env.FreeSlot itself, e.g.
// after a TX completion).
type App interface {
	Name() string
	OnPacket(env *Env, slot *nic.Slot) (extra sim.Duration, deferred bool)
}

// Env is the per-core execution environment handed to apps.
type Env struct {
	Sim    *sim.Simulator
	CoreID int
	Hier   *hier.Hierarchy
	// Port is the NIC this core receives from, and Ring the core's RX
	// ring on it.
	Port *nic.NIC
	Ring *nic.Ring
	// Obs receives packet-service and slot-free trace events for
	// sampled packets; nil (the default) disables emission at the cost
	// of one branch per packet.
	Obs   *obs.Observer
	cfg   Config
	clock sim.Clock
	// selfInval makes the stack invalidate DMA buffers (payload and
	// descriptor lines) without writeback when freeing them — IDIO's
	// Sec. IV-A mechanism.
	selfInval bool

	// outstanding is the reusable MSHR completion buffer for
	// ReadRegion (MSHRs > 1), sized once to the MSHR count.
	outstanding []sim.Duration
}

// TransmitAndFree forwards a slot's payload back out of the port it
// arrived on (zero-copy TX through nic.Transmit, the one egress path)
// and frees the slot when the TX DMA reads complete, through a
// package-level completion event, so the egress path allocates
// nothing. When the port has an egress wire installed (a network
// fabric), the transmitted frame is handed to it at TX completion,
// after the free.
func (e *Env) TransmitAndFree(slot *nic.Slot, payload mem.Region) {
	slot.NIC().Transmit(e.Sim, payload, txFreeEv, sim.Arg{Obj: e, Obj2: slot})
}

// txFreeEv is TransmitAndFree's TX completion: Arg.Obj is the *Env,
// Obj2 the *nic.Slot. Free first, then hand the frame to the wire;
// the wire hook reads the frame synchronously in this event, before
// any later event can recycle the packet.
func txFreeEv(sm *sim.Simulator, a sim.Arg) {
	e := a.Obj.(*Env)
	slot := a.Obj2.(*nic.Slot)
	port := slot.NIC()
	p := slot.Pkt // capture: FreeSlot clears the slot's packet pointer
	e.FreeSlot(slot)
	if port.HasWire() {
		port.WirePacket(sm, p)
	}
}

// Read performs a demand load of one line, returning its latency.
func (e *Env) Read(line mem.LineAddr) sim.Duration {
	return e.Hier.CoreRead(e.Sim.Now(), e.CoreID, line)
}

// Write performs a demand store of one line, returning its latency.
func (e *Env) Write(line mem.LineAddr) sim.Duration {
	return e.Hier.CoreWrite(e.Sim.Now(), e.CoreID, line)
}

// ReadRegion loads every line of a region, returning the region's
// service time under the core's MSHR budget: with MSHRs == 1 the
// latencies simply sum; with more, up to MSHRs fetches overlap and the
// result is the critical path of the resulting schedule.
func (e *Env) ReadRegion(r mem.Region) sim.Duration {
	mshrs := e.cfg.MSHRs
	first := r.Base.Line()
	n := r.NumLines()
	if mshrs <= 1 {
		var total sim.Duration
		for i := 0; i < n; i++ {
			total += e.Read(first + mem.LineAddr(i))
		}
		return total
	}
	// Mini MSHR schedule: issue in order, each fetch occupies a slot
	// for its latency; a full MSHR file stalls issue until the oldest
	// outstanding fetch completes. The completion buffer is reused
	// across calls so the per-packet path allocates nothing.
	if cap(e.outstanding) < mshrs {
		e.outstanding = make([]sim.Duration, 0, mshrs)
	}
	var (
		outstanding = e.outstanding[:0] // completion times relative to start
		now         sim.Duration        // issue cursor
		finish      sim.Duration
	)
	for i := 0; i < n; i++ {
		if len(outstanding) == mshrs {
			// Pop the earliest completion; issue can't proceed before it.
			min, idx := outstanding[0], 0
			for j, c := range outstanding {
				if c < min {
					min, idx = c, j
				}
			}
			outstanding = append(outstanding[:idx], outstanding[idx+1:]...)
			if min > now {
				now = min
			}
		}
		done := now + e.Read(first+mem.LineAddr(i))
		outstanding = append(outstanding, done)
		if done > finish {
			finish = done
		}
	}
	e.outstanding = outstanding[:0]
	return finish
}

// FreeSlot returns a consumed slot to its ring, self-invalidating its
// payload and descriptor lines first when the policy says so. A buffer
// detached from the slot (re-allocate mode) is its new owner's to
// invalidate, so only the descriptor goes. Slots must be freed in ring
// order (the ring enforces it). The returned duration is the
// instruction cost of the invalidations (zero when self-invalidation
// is off); run-to-completion callers charge it to the core before the
// next poll.
func (e *Env) FreeSlot(slot *nic.Slot) sim.Duration {
	// Capture identity before Free: the ring clears the tail slot's
	// packet pointer as part of returning it.
	if e.Obs.Tracing() && slot.Pkt != nil && e.Obs.TracingPacket(slot.Pkt.Seq) {
		e.Obs.Emit(obs.Event{Kind: obs.EvFree, Seq: slot.Pkt.Seq, Core: e.CoreID, At: e.Sim.Now()})
	}
	var cost sim.Duration
	if slot.Buf.Size == 0 {
		cost = e.SelfInvalidate(slot.Desc)
	} else {
		cost = e.SelfInvalidate(slot.PayloadRegion(), slot.Desc)
	}
	slot.Ring().Free()
	return cost
}

// SelfInvalidate invalidates the lines of regions without writeback
// (Sec. V-D) when the core's policy self-invalidates, and returns the
// instruction cost to charge: zero when self-invalidation is off.
func (e *Env) SelfInvalidate(regions ...mem.Region) sim.Duration {
	if !e.selfInval {
		return 0
	}
	lines := 0
	for _, r := range regions {
		lines += r.NumLines()
		e.Hier.InvalidateRegionNoWB(e.Sim.Now(), e.CoreID, r)
	}
	return e.invalCost(lines)
}

// invalCost converts an invalidated line count to instruction time.
func (e *Env) invalCost(lines int) sim.Duration {
	if e.cfg.InvalCyclesPerLine <= 0 {
		return 0
	}
	return e.clock.Cycles(e.cfg.InvalCyclesPerLine * int64(lines))
}

// Core runs the polling loop for one physical core.
type Core struct {
	id  int
	cfg Config
	env Env
	app App
	cc  sim.Clock

	// Latencies collects per-packet service latency (arrival at NIC to
	// processing completion).
	Latencies *stats.LatencyDist
	Processed uint64
	// BusyTime accumulates time spent processing (vs. idle polling).
	BusyTime sim.Duration
	// FirstPacketAt / LastDoneAt bracket the measurement for burst
	// processing time (Fig. 10's Exe Time).
	FirstPacketAt sim.Time
	LastDoneAt    sim.Time
	// Interrupts counts wake-ups taken in interrupt mode.
	Interrupts uint64

	// StallsTaken counts injected stalls the polling loop honoured;
	// StallTime accumulates the injected delay actually served.
	StallsTaken uint64
	StallTime   sim.Duration

	started    bool
	irqArmed   bool
	stallUntil sim.Time // injected slow-core stall: no polling before this

	// pollFn is c.poll bound once at Start, so re-poll scheduling does
	// not allocate a method value per event.
	pollFn sim.Event
	// batch and releasable are reused across polls (capacity
	// BatchSize) so the steady-state driver loop allocates nothing.
	batch      []*nic.Slot
	releasable []*nic.Slot
	// In-flight packet state for the argful pkt-done event. A core
	// processes strictly one packet at a time (run to completion), so
	// a single set of fields replaces the per-packet closure captures.
	curIdx     int
	curLat     sim.Duration
	curStart   sim.Time
	curArrival sim.Time
	curSeq     uint64
	curSlot    *nic.Slot
}

// NewCore builds a core bound to its ring on port and an app. The
// core's stack self-invalidates freed DMA buffers when selfInval is
// set (the policy's SelfInvalidate). A nil port leaves the core
// without a ring; Start refuses such a core.
func NewCore(id int, cfg Config, selfInval bool, clock sim.Clock, h *hier.Hierarchy, port *nic.NIC, app App) *Core {
	if cfg.BatchSize <= 0 {
		panic("cpu: batch size must be positive")
	}
	if cfg.PollInterval <= 0 {
		panic("cpu: poll interval must be positive")
	}
	env := Env{
		CoreID:    id,
		Hier:      h,
		Port:      port,
		cfg:       cfg,
		clock:     clock,
		selfInval: selfInval,
	}
	if port != nil {
		env.Ring = port.Ring(id)
	}
	c := &Core{
		id:        id,
		cfg:       cfg,
		app:       app,
		cc:        clock,
		env:       env,
		Latencies: stats.NewLatencyDist(),
	}
	return c
}

// Env exposes the core's environment (used by standalone app drivers).
func (c *Core) Env() *Env { return &c.env }

// Start schedules the driver loop (polling or interrupt-driven).
func (c *Core) Start(s *sim.Simulator) {
	if c.started {
		panic("cpu: core already started")
	}
	c.started = true
	c.env.Sim = s
	if c.env.Ring == nil {
		panic("cpu: core has no RX ring")
	}
	c.pollFn = c.poll
	c.batch = make([]*nic.Slot, 0, c.cfg.BatchSize)
	c.releasable = make([]*nic.Slot, 0, c.cfg.BatchSize)
	switch c.cfg.Driver {
	case DriverInterrupt:
		c.env.Port.OnCompletion(c.id, c.interrupt)
		c.irqArmed = true
	default:
		s.At(s.Now(), c.pollFn)
	}
}

// interrupt is the NIC's completion handler: if the core was asleep,
// wake it after the IRQ latency and disable further interrupts until
// the ring drains (NAPI semantics).
func (c *Core) interrupt(s *sim.Simulator) {
	if !c.irqArmed {
		return
	}
	c.irqArmed = false
	c.Interrupts++
	s.After(c.cfg.IRQLatency, c.pollFn)
}

// InjectStall freezes the core's driver loop until now+d — the fault
// model of a slow core (SMI, thermal throttle, noisy-neighbour
// preemption) starving its polling loop while the NIC keeps filling
// the ring. Extending an active stall is allowed; shortening is not.
func (c *Core) InjectStall(now sim.Time, d sim.Duration) {
	until := now.Add(d)
	if until > c.stallUntil {
		c.stallUntil = until
	}
}

// poll implements the driver loop: gather a burst of visible
// descriptors and process it. When idle, a polling driver re-polls
// after PollInterval; an interrupt driver re-arms and sleeps.
func (c *Core) poll(s *sim.Simulator) {
	for {
		if s.Now() < c.stallUntil {
			// Injected slow-core stall: defer the whole loop (including
			// interrupt-mode wakeups) until the stall expires.
			c.StallsTaken++
			c.StallTime += c.stallUntil.Sub(s.Now())
			s.At(c.stallUntil, c.pollFn)
			return
		}
		c.batch = c.batch[:0]
		ring := c.env.Ring
		for len(c.batch) < c.cfg.BatchSize {
			slot := ring.Poll(s.Now())
			if slot == nil {
				break
			}
			ring.Consume()
			c.batch = append(c.batch, slot)
		}
		if len(c.batch) > 0 {
			if c.FirstPacketAt == 0 && c.Processed == 0 {
				c.FirstPacketAt = s.Now()
			}
			c.releasable = c.releasable[:0]
			// Process the batch and re-poll in this loop rather than by
			// recursion, so a core whose work keeps fusing runs in one
			// stack frame however long the chain.
			if !c.processNext(s, 0) || !c.endBatch(s) {
				return
			}
			continue
		}
		if c.cfg.Driver == DriverInterrupt {
			c.irqArmed = true
			return
		}
		// Fuse the idle re-poll: spin the poll loop inline instead of
		// scheduling the next poll. sim.FuseAfter runs any event due
		// before the next poll instant in place first, exactly when
		// the scheduled re-poll would have let it run, and files the
		// re-poll when the run's bound or the nesting limit refuses.
		if !s.FuseAfter(c.cfg.PollInterval, c.pollFn) {
			return
		}
	}
}

// processNext runs the batch from entry i: each packet's OnPacket fires
// at its start instant and its retirement at start+lat. The retirement
// is fused inline (sim.FuseAtArg), with any event due in between run
// in place first, and the loop continues to the next packet; when the
// kernel refuses the fuse it files the packet's pkt-done event exactly
// as an unfused core would schedule it. processNext reports whether
// the whole batch retired inline. Per-packet state lives on the Core —
// a core runs exactly one packet at a time, so the fields replace what
// used to be closure captures.
func (c *Core) processNext(s *sim.Simulator, i int) bool {
	for {
		slot := c.batch[i]
		start := s.Now()
		extra, deferred := c.app.OnPacket(&c.env, slot)
		// Memory latency accrued by OnPacket is measured by how much the
		// app reports plus the fixed instruction cost.
		lat := c.memLatencyOf(extra) // extra already includes mem time from env calls made by app
		done := start.Add(lat)
		// Capture packet identity now: a fast TX completion can recycle
		// the slot (clearing Pkt) before the pkt-done event fires.
		c.curIdx = i
		c.curLat = lat
		c.curStart = start
		c.curArrival = sim.Time(slot.Pkt.ArrivalTimePS)
		c.curSeq = slot.Pkt.Seq
		c.curSlot = slot
		if !deferred {
			c.releasable = append(c.releasable, slot)
		}
		if !s.FuseAtArg(done, pktDoneEv, &sim.Arg{Obj: c}) {
			return false
		}
		c.retire(s)
		if c.curIdx+1 >= len(c.batch) {
			return true
		}
		i = c.curIdx + 1
	}
}

// retire books the in-flight packet's completion at s.Now() (its done
// instant): counters, latency histogram and the EvDone trace event.
func (c *Core) retire(s *sim.Simulator) {
	c.Processed++
	c.BusyTime += c.curLat
	c.LastDoneAt = s.Now()
	c.Latencies.Record(s.Now().Sub(c.curArrival))
	if c.env.Obs.TracingPacket(c.curSeq) {
		c.env.Obs.Emit(obs.Event{
			Kind: obs.EvDone, Seq: c.curSeq, Core: c.id, At: s.Now(),
			Arrival: c.curArrival, Ready: c.curSlot.ReadyAt, Start: c.curStart,
		})
	}
}

// endBatch releases the batch's non-deferred buffers in ring order
// (charging the invalidate-instruction cost). It reports whether the
// caller re-polls inline now: true when there is no free cost or its
// delay fuses (sim.FuseAfter), false when the re-poll was filed as an
// event.
func (c *Core) endBatch(s *sim.Simulator) bool {
	c.curSlot = nil
	var freeCost sim.Duration
	for _, sl := range c.releasable {
		freeCost += c.env.FreeSlot(sl)
	}
	c.BusyTime += freeCost
	return freeCost == 0 || s.FuseAfter(freeCost, c.pollFn)
}

// pktDoneEv retires the in-flight packet (Arg.Obj is the *Core) and
// either chains to the next batch entry or frees the batch and
// re-polls. It fires only when the kernel refused to fuse the
// retirement inline.
func pktDoneEv(sm *sim.Simulator, a sim.Arg) {
	c := a.Obj.(*Core)
	c.retire(sm)
	if c.curIdx+1 < len(c.batch) && !c.processNext(sm, c.curIdx+1) {
		return
	}
	if c.endBatch(sm) {
		c.poll(sm)
	}
}

// memLatencyOf combines app-reported latency with the per-packet
// instruction cost.
func (c *Core) memLatencyOf(appTime sim.Duration) sim.Duration {
	return appTime + c.cc.Cycles(c.cfg.PerPacketCycles)
}
