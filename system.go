package idio

import (
	"fmt"

	idiocore "idio/internal/core"
	"idio/internal/cpu"
	"idio/internal/fault"
	"idio/internal/hier"
	"idio/internal/mem"
	"idio/internal/nic"
	"idio/internal/obs"
	"idio/internal/pcie"
	"idio/internal/pkt"
	"idio/internal/qos"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// rootComplex is the host side of the PCIe link: it decodes each DMA
// transaction's IDIO metadata, consults the controller's data plane,
// and drives the hierarchy (and prefetchers) accordingly. It
// implements nic.Sink.
type rootComplex struct {
	sys *System
	// trace caches whether the observer traces at all (fixed at
	// construction), so untraced runs test one field per line.
	trace bool

	// dw0 and meta memoise the last decoded TLP header. Every line of a
	// packet after its first carries the same DW0, so a packet costs two
	// decodes, not one per line. The zero values agree: DW0 0 decodes to
	// the zero Meta.
	dw0  uint32
	meta pcie.Meta

	// firstDMAAt records the first inbound DMA after the last call to
	// ResetMeasurement — the start of the DMA phase for exe-time
	// accounting (Fig. 10).
	firstDMAAt sim.Time
	sawDMA     bool
}

// DMAWrite implements nic.Sink. Steering and the prefetch hint stay
// per line; the header decode is shared by every line with the same
// DW0.
func (rc *rootComplex) DMAWrite(now sim.Time, tlp pcie.WriteTLP) sim.Duration {
	sys := rc.sys
	if !rc.sawDMA {
		rc.sawDMA = true
		rc.firstDMAAt = now
	}
	if tlp.DW0 != rc.dw0 {
		rc.dw0, rc.meta = tlp.DW0, tlp.Meta()
	}
	meta := rc.meta
	steer := sys.Controller.Steer(meta)
	line := mem.LineAddr(tlp.LineAddr)
	var lat sim.Duration
	if steer == idiocore.SteerDRAM {
		lat = sys.Hier.DirectDRAMWrite(now, line)
	} else {
		// The class's DDIO way quota applies when QoS set one; without
		// QoS every class falls back to the host-wide DDIO mask.
		lat = sys.Hier.PCIeWriteClass(now, line, int(meta.QoS))
	}
	// A corrupted metadata bit can decode to a core the system does not
	// have; Steer only returns SteerMLC for in-range cores, but guard
	// anyway — a mis-steer must degrade, never crash. Without QoS the
	// class hint is the plain hint.
	if steer == idiocore.SteerMLC && meta.DestCore >= 0 && meta.DestCore < len(sys.Prefetchers) {
		sys.Prefetchers[meta.DestCore].HintClass(sys.Sim, tlp.LineAddr, meta.QoS)
	}
	if rc.trace {
		sys.obs.LineEvent(obs.EvPlace, now, tlp.LineAddr, meta.DestCore, steer.String(), lat)
	}
	return lat
}

// DMARead implements nic.Sink (TX egress path).
func (rc *rootComplex) DMARead(now sim.Time, line uint64) sim.Duration {
	return rc.sys.Hier.PCIeRead(now, mem.LineAddr(line))
}

// prefetchAdapter bridges the controller-side prefetcher to the
// hierarchy's typed API. It also exposes MLC load so the adaptive
// prefetcher variant can regulate itself.
type prefetchAdapter struct{ sys *System }

func (a prefetchAdapter) PrefetchToMLC(now sim.Time, coreID int, line uint64) bool {
	return a.sys.Hier.PrefetchToMLC(now, coreID, mem.LineAddr(line))
}

func (a prefetchAdapter) MLCLoadFraction(coreID int) float64 {
	return a.sys.Hier.MLCLoadFraction(coreID)
}

// System is a fully wired simulated server: hierarchy, NIC, IDIO
// components, and per-core software stacks.
type System struct {
	Cfg Config

	Sim         *sim.Simulator
	Hier        *hier.Hierarchy
	NIC         *nic.NIC
	FlowDir     *nic.FlowDirector
	Classifier  *idiocore.Classifier
	Controller  *idiocore.Controller
	Prefetchers []*idiocore.Prefetcher
	Cores       []*cpu.Core
	// WayTuner is non-nil when the dynamic DDIO-way baseline is
	// configured.
	WayTuner *idiocore.WayTuner
	// Faults is non-nil when Config.Faults enables the deterministic
	// fault-injection layer; its Stats() reports what was perturbed.
	Faults *fault.Injector

	// PktPool recycles the *pkt.Packet objects (and their frame
	// storage) flowing through this host: traffic generators targeting
	// the NIC discover it via the PacketPooler probe, packets return
	// to it when their RX ring slot is freed (or when a drop path
	// kills them), and a Cluster draws its fabric request/response
	// packets from it too. One pool per host gives one accounting
	// point: after a drained run, Outstanding() must be zero.
	PktPool *pkt.Pool

	rc     *rootComplex
	layout *mem.Layout
	// lines is the host's line engine: the NIC's DMA cursor and every
	// prefetcher's issue cursor, stepped in key order as one event.
	lines   *sim.Group
	started bool

	obs *obs.Observer
}

// NewSystem wires a system from the configuration. It panics on an
// invalid configuration (the historical behaviour); NewSystemE is the
// error-returning variant for configurations from untrusted input.
func NewSystem(cfg Config) *System {
	s, err := NewSystemE(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSystemE validates the configuration and wires a system,
// returning *ConfigError values (joined) instead of panicking when
// the configuration is invalid.
func NewSystemE(cfg Config) (*System, error) {
	return NewHostE(sim.New(), cfg)
}

// NewHostE wires a system as one host of a multi-host topology: it
// shares the caller's simulator instead of creating its own, so a DUT
// server and the network fabric connecting it to client hosts advance
// on one event queue (see Cluster). NewSystemE is the single-host
// special case.
func NewHostE(sm *sim.Simulator, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, Sim: sm, lines: sim.NewGroup(sm)}
	s.obs = obs.New(cfg.Obs)
	if cfg.Watchdog != nil {
		s.Sim.SetWatchdog(*cfg.Watchdog)
	}
	s.Hier = hier.New(cfg.Hier)
	s.Hier.SetObserver(s.obs)
	s.Classifier = idiocore.NewClassifier(cfg.Classifier)
	s.FlowDir = nic.NewFlowDirector(cfg.Hier.NumCores)
	s.Controller = idiocore.NewController(cfg.Controller, cfg.Policy, s.Hier.MLCWritebacks)
	for i := 0; i < cfg.Hier.NumCores; i++ {
		s.Prefetchers = append(s.Prefetchers,
			idiocore.NewPrefetcher(cfg.Prefetcher, i, prefetchAdapter{s}, s.lines))
	}
	if cfg.DynamicDDIOWays != nil {
		s.WayTuner = idiocore.NewWayTuner(*cfg.DynamicDDIOWays, s.Hier.LLCWBIOCount, s.Hier.SetDDIOWays)
	}
	s.rc = &rootComplex{sys: s, trace: s.obs.Tracing()}
	s.layout = mem.NewLayout(1 << 30) // DMA regions above 1 GB
	// The fault injector interposes on the NIC→root-complex PCIe path
	// so TLP perturbations happen before steering,
	// exactly where a real poisoned/corrupted TLP would bite.
	var sink nic.Sink = s.rc
	if cfg.Faults.Enabled() {
		s.Faults = fault.New(*cfg.Faults)
		sink = s.Faults.WrapSink(s.rc)
	}
	s.PktPool = pkt.NewPool(0)
	s.NIC = nic.New(cfg.NIC, s.layout, sink, s.Classifier, s.FlowDir, s.lines)
	s.NIC.SetObserver(s.obs)
	s.NIC.SetPacketPool(s.PktPool)
	if s.Faults != nil {
		s.Faults.AttachPort(s.NIC)
		s.Faults.AttachDRAM(s.Hier.DRAM())
	}
	s.Cores = make([]*cpu.Core, cfg.Hier.NumCores)
	// Mark all ring buffers and descriptors Invalidatable (the kernel
	// allocated them for the NF, Sec. V-D).
	for q := 0; q < cfg.NIC.NumQueues; q++ {
		for _, slot := range s.NIC.Ring(q).Slots() {
			s.Hier.RegisterInvalidatable(slot.Buf)
			s.Hier.RegisterInvalidatable(slot.Desc)
		}
	}
	if q := cfg.QoS; q != nil {
		qmap, err := q.BuildMap()
		if err != nil {
			return nil, err
		}
		s.NIC.SetQoSMap(qmap)
		var direct [qos.NumClasses]bool
		var every [qos.NumClasses]int
		for ci := range q.Classes {
			p := &q.Classes[ci]
			if p.LLCWays > 0 {
				s.Hier.SetClassDDIOWays(ci, p.LLCWays)
			}
			direct[ci] = p.DirectDRAM
			every[ci] = p.PrefetchEvery
		}
		s.Controller.SetQoSPolicy(direct)
		for _, pf := range s.Prefetchers {
			pf.SetClassEvery(every)
		}
	}
	s.registerMetrics()
	return s, nil
}

// registerMetrics populates the observability registry: the one name
// table behind the -stats dump (Results.WriteStats), the -json
// document and the periodic metric series. All entries are closures
// over live component state, so a registry snapshot at any simulated
// time reflects that instant.
func (s *System) registerMetrics() {
	reg := s.obs.Registry()
	reg.GaugeFunc("sim.now_us", func() float64 { return s.Sim.Now().Microseconds() })
	s.NIC.RegisterMetrics(reg, "nic.")
	if s.Cfg.NIC.AdmissionWatermark > 0 {
		reg.CounterFunc("nic.admission_drops", func() uint64 { return s.NIC.Stats().AdmissionDrops })
	}
	// Per-class keys exist only when QoS is armed.
	if s.Cfg.QoS != nil {
		for c := 0; c < qos.NumClasses; c++ {
			c := c
			reg.CounterFunc(fmt.Sprintf("qos.%v.rx_packets", qos.Class(c)), func() uint64 {
				pkts, _ := s.NIC.ClassRx()
				return pkts[c]
			})
			reg.CounterFunc(fmt.Sprintf("qos.%v.rx_bytes", qos.Class(c)), func() uint64 {
				_, bytes := s.NIC.ClassRx()
				return bytes[c]
			})
		}
		reg.CounterFunc("qos.direct_dram", func() uint64 { return s.Controller.QoSDRAMCount })
		reg.CounterFunc("qos.prefetch_suppressed", func() uint64 {
			var n uint64
			for _, p := range s.Prefetchers {
				n += p.ClassSuppressed
			}
			return n
		})
	}
	s.Controller.RegisterMetrics(reg, "ctrl.")
	s.Classifier.RegisterMetrics(reg, "classifier.")
	s.Hier.RegisterMetrics(reg, "hier.")
	s.Hier.DRAM().RegisterMetrics(reg, "dram.")
	reg.GaugeFunc("exe_time_us", func() float64 { return s.exeTime().Microseconds() })
	reg.CounterFunc("sim.aborted", func() uint64 {
		if s.watchdogErr() != nil {
			return 1
		}
		return 0
	})
	for i, p := range s.Prefetchers {
		p.RegisterMetrics(reg, fmt.Sprintf("prefetch.core%d.", i))
	}
	if s.Faults != nil {
		reg.CounterFunc("fault.tlps_corrupted", func() uint64 { return s.Faults.Stats().TLPsCorrupted })
		reg.CounterFunc("fault.tlps_poisoned", func() uint64 { return s.Faults.Stats().TLPsPoisoned })
		reg.CounterFunc("fault.dma_stalls", func() uint64 { return s.Faults.Stats().DMAStalls })
		reg.CounterFunc("fault.dram_spikes", func() uint64 { return s.Faults.Stats().DRAMSpikes })
		reg.CounterFunc("fault.core_stalls", func() uint64 { return s.Faults.Stats().CoreStalls })
		reg.CounterFunc("fault.fabric_flaps", func() uint64 { return s.Faults.Stats().FabricFlaps })
		reg.CounterFunc("fault.fabric_degrades", func() uint64 { return s.Faults.Stats().FabricDegrades })
		if len(s.Cfg.Faults.Timeline) > 0 {
			reg.CounterFunc("fault.timeline_phases", func() uint64 { return s.Faults.Stats().TimelinePhases })
		}
	}
	// Cores are installed after construction (AddNF), so the per-core
	// closures tolerate nil slots and report zero until an app exists.
	for i := range s.Cores {
		i := i
		core := func() *cpu.Core { return s.Cores[i] }
		reg.CounterFunc(fmt.Sprintf("core%d.processed", i), func() uint64 {
			if c := core(); c != nil {
				return c.Processed
			}
			return 0
		})
		reg.GaugeFunc(fmt.Sprintf("core%d.p50_us", i), func() float64 {
			if c := core(); c != nil && c.Latencies.Count() > 0 {
				return c.Latencies.P50().Microseconds()
			}
			return 0
		})
		reg.GaugeFunc(fmt.Sprintf("core%d.p99_us", i), func() float64 {
			if c := core(); c != nil && c.Latencies.Count() > 0 {
				return c.Latencies.P99().Microseconds()
			}
			return 0
		})
		reg.GaugeFunc(fmt.Sprintf("core%d.busy_us", i), func() float64 {
			if c := core(); c != nil {
				return c.BusyTime.Microseconds()
			}
			return 0
		})
		reg.CounterFunc(fmt.Sprintf("core%d.demand_l1", i), func() uint64 { return s.Hier.Demand(i).L1Hit })
		reg.CounterFunc(fmt.Sprintf("core%d.demand_mlc", i), func() uint64 { return s.Hier.Demand(i).MLCHit })
		reg.CounterFunc(fmt.Sprintf("core%d.demand_llc", i), func() uint64 { return s.Hier.Demand(i).LLCHit })
		reg.CounterFunc(fmt.Sprintf("core%d.demand_dram", i), func() uint64 { return s.Hier.Demand(i).DRAM })
		reg.GaugeFunc(fmt.Sprintf("core%d.onchip_hit_rate", i), func() float64 { return s.Hier.Demand(i).HitRateOnChip() })
	}
}

// exeTime is the burst processing time: first inbound DMA to the last
// packet completion across cores (zero before any packet completes).
func (s *System) exeTime() sim.Duration {
	var lastDone sim.Time
	for _, c := range s.Cores {
		if c != nil && c.LastDoneAt > lastDone {
			lastDone = c.LastDoneAt
		}
	}
	if first, ok := s.FirstDMAAt(); ok && lastDone > first {
		return lastDone.Sub(first)
	}
	return 0
}

// watchdogErr returns the watchdog abort that stopped the run, or nil.
func (s *System) watchdogErr() *sim.WatchdogError {
	werr, _ := s.Sim.Err().(*sim.WatchdogError)
	return werr
}

// Observe exposes the system's observability layer: its metric
// registry (always live), the structured tracer (enabled via
// Config.Obs.TraceSampleN), and the periodic metric time series
// (enabled via Config.Obs.MetricsInterval). Attach a trace sink with
// Observe().SetSink before Start.
func (s *System) Observe() *obs.Observer { return s.obs }

// DefaultFlow returns a distinct UDP flow for each core, pre-routed to
// it via an externally-programmed Flow Director rule when installed
// through AddNF.
func (s *System) DefaultFlow(coreID int) traffic.Flow {
	return traffic.Flow{
		Src: pkt.IPv4{10, 0, 1, byte(coreID + 1)}, Dst: pkt.IPv4{10, 0, 0, 1},
		SrcPort: uint16(5000 + coreID), DstPort: uint16(9000 + coreID),
		FrameLen: pkt.MTUFrameLen,
	}
}

// AddNF binds a network-function app to a core and pins its flow to
// that core with an EP Flow Director rule. The core's software stack
// self-invalidates buffers when the active policy says so.
func (s *System) AddNF(coreID int, app cpu.App, flow traffic.Flow) *cpu.Core {
	if s.Cores[coreID] != nil {
		panic(fmt.Sprintf("idio: core %d already has an app", coreID))
	}
	s.FlowDir.AddEPRule(flow.Tuple(), coreID)
	c := cpu.NewCore(coreID, s.Cfg.CPU, s.Cfg.Policy.SelfInvalidate, s.Cfg.Hier.Clock, s.Hier, s.NIC, app)
	c.Env().Obs = s.obs
	s.Cores[coreID] = c
	if s.Faults != nil {
		s.Faults.AttachCore(coreID, c)
	}
	return c
}

// AllocRegion carves an application-owned memory region (e.g. for a
// NAT table or the LLC antagonist buffer).
func (s *System) AllocRegion(bytes uint64) mem.Region {
	return s.layout.Alloc(bytes, mem.LineBytes)
}

// NewMbufPool carves a packet-buffer pool for re-allocate-mode (M2)
// rings out of the system's address space. Buffers are registered as
// Invalidatable (the software stack may self-invalidate them).
func (s *System) NewMbufPool(n int) *nic.MbufPool {
	p := nic.NewMbufPool(n, s.layout)
	for _, b := range p.Buffers() {
		s.Hier.RegisterInvalidatable(b)
	}
	return p
}

// Start launches every installed core's polling loop and the IDIO
// controller's control plane. Calling it more than once is a no-op.
func (s *System) Start() {
	if s.started {
		return
	}
	s.started = true
	// Every region a run touches is carved from the layout by now.
	s.Hier.ReserveRecords(s.layout.Span())
	for _, c := range s.Cores {
		if c != nil {
			c.Start(s.Sim)
		}
	}
	s.Controller.Start(s.Sim)
	if s.WayTuner != nil {
		s.WayTuner.Start(s.Sim)
	}
	if s.Faults != nil {
		s.Faults.Start(s.Sim)
	}
	if iv := s.obs.MetricsInterval(); iv > 0 {
		s.Sim.Every(0, iv, func(sm *sim.Simulator) {
			s.obs.SampleMetrics(sm.Now())
		})
	}
}

// Run starts the system (if not already started) and executes until
// the horizon, returning collected results.
func (s *System) Run(horizon sim.Duration) Results {
	s.Start()
	s.Sim.RunUntil(sim.Time(horizon))
	return s.Collect()
}

// RunUntilIdle executes until no ring holds packet work, checked at
// every 100 µs checkpoint and bounded by the horizon (rounded up to a
// checkpoint), or until the watchdog trips. Useful for "process one
// burst to completion" experiments. The checkpoint grid starts at
// time zero, so checkpoints the clock has already passed cost only an
// idle check.
func (s *System) RunUntilIdle(horizon sim.Duration) Results {
	s.Start()
	_, _ = runUntilIdle(s.Sim, 0, horizon, s.idle) // the abort stays readable via Err
	return s.Collect()
}

// Err reports a structured abort (watchdog trip) from the last run,
// or nil after a clean run.
func (s *System) Err() error { return s.Sim.Err() }

func (s *System) idle() bool {
	for q := 0; q < s.Cfg.NIC.NumQueues; q++ {
		if s.NIC.Ring(q).Occupancy() != 0 {
			return false
		}
	}
	return true
}

// FirstDMAAt returns when the first inbound DMA landed (DMA-phase
// start), valid once traffic has flowed.
func (s *System) FirstDMAAt() (sim.Time, bool) { return s.rc.firstDMAAt, s.rc.sawDMA }
