// Package nic models the network interface card: per-core RX
// descriptor rings, a bandwidth-paced DMA engine, Flow Director packet
// steering, the IDIO classifier hookup, descriptor write-back
// coalescing, and the TX (egress) DMA read path.
package nic

import (
	idiocore "idio/internal/core"
	"idio/internal/mem"
	"idio/internal/obs"
	"idio/internal/pcie"
	"idio/internal/pkt"
	"idio/internal/qos"
	"idio/internal/sim"
)

// Sink is the host side of the PCIe link — the root complex. The NIC
// pushes write TLPs (RX DMA) and read TLPs (TX DMA) into it.
type Sink interface {
	DMAWrite(now sim.Time, tlp pcie.WriteTLP) sim.Duration
	DMARead(now sim.Time, lineAddr uint64) sim.Duration
}

// Config describes the NIC.
type Config struct {
	NumQueues int // one RX queue (and ring) per core
	RingSize  int // descriptors per ring (DPDK default 1024)
	// LineRateBps is the PCIe-side DMA bandwidth in bits per second.
	// Two 100 Gbps ports behind a x16 link give ~200 Gbps usable.
	LineRateBps int64
	// DescWBDelay is the descriptor write-back coalescing delay: the
	// lag between a packet's last payload line landing and its
	// descriptor becoming visible to the polling driver. Sec. VII
	// observes ~1.9 µs between first DMA and execution start.
	DescWBDelay sim.Duration
	// AdmissionWatermark, when > 0, enables host admission control:
	// a packet steered to a ring whose occupancy has reached the
	// watermark is shed (AdmissionDrops) before consuming a descriptor,
	// modeling graceful load-shedding when the service path is
	// saturated. 0 admits until the ring itself is full.
	AdmissionWatermark int
}

// DefaultConfig follows Table I and Sec. VI.
func DefaultConfig(queues int) Config {
	return Config{
		NumQueues:   queues,
		RingSize:    1024,
		LineRateBps: 200_000_000_000,
		DescWBDelay: 1900 * sim.Nanosecond,
	}
}

// Stats aggregates NIC-side counters.
type Stats struct {
	RxPackets uint64
	RxBytes   uint64
	RxDrops   uint64
	TxPackets uint64
	DMAWrites uint64 // payload+descriptor line writes
	DMAReads  uint64 // TX line reads
	// PoolDrops counts packets rejected because the mbuf pool was
	// exhausted (pooled rings only).
	PoolDrops uint64
	// LinkDownDrops counts packets lost while the link was down
	// (injected flaps).
	LinkDownDrops uint64
	// MisSteers counts packets the flow director steered to a
	// non-existent queue; they are dropped instead of crashing.
	MisSteers uint64
	// AdmissionDrops counts packets shed by the admission-control
	// watermark before reaching the ring (0 with the watermark unset).
	AdmissionDrops uint64
	// InvariantViolations counts internal errors (e.g. metadata that
	// failed to encode) handled by dropping the affected DMA instead of
	// panicking. Non-zero values indicate a bug or an injected fault
	// reaching an encode path.
	InvariantViolations uint64
}

// NIC is the device model. Incoming packets (from a traffic generator)
// enter via Receive; the CPU model polls rings via Ring and transmits
// via Transmit.
type NIC struct {
	cfg        Config
	sink       Sink
	classifier *idiocore.Classifier
	flowdir    *FlowDirector
	rings      []*Ring

	// engineFree is when the DMA engine can start the next line
	// transfer (shared across queues — one PCIe link).
	engineFree sim.Time
	// lt is the wire time of one 64-byte line at the DMA rate.
	lt sim.Duration

	// dma is the NIC's cursor in the host's line engine (a sim.Group):
	// it walks the FIFO of queued bursts — RX write bursts and TX read
	// bursts in reserveDMA order, so they never overlap — one line per
	// step. bursts is a power-of-two ring of bHead/nBursts entries;
	// line is the cursor's position in the head burst.
	dma     *sim.Cursor
	bursts  []burst
	bHead   int
	nBursts int
	line    uint32

	// irq is each queue's completion handler, set through
	// OnCompletion: the interrupt line of an interrupt-mode driver.
	// Nil means none (a polling driver).
	irq []func(*sim.Simulator)

	// linkDown, when true, drops every arriving packet (a link flap).
	// In-flight DMA is unaffected, as on real hardware.
	linkDown bool

	// obs receives the packet-journey trace events (rx, drop, dma)
	// for sampled packets. A nil observer costs one branch per packet.
	obs *obs.Observer

	// wire is the egress hook: when set, every transmitted packet is
	// handed to it at TX-DMA completion time (the instant the frame
	// would hit the wire). The network fabric installs it to carry NF
	// responses back to clients; nil (the default) keeps the historical
	// transmit-and-forget behaviour.
	wire func(s *sim.Simulator, p *pkt.Packet)

	// pktPool, when set, is the packet pool generators feeding this
	// port draw from (see traffic.PacketPooler): packets recycle
	// generator → ring → service → Ring.Free → pool without touching
	// the heap. The System installs its per-host pool here.
	pktPool *pkt.Pool

	// qosMap, when set, is the DSCP→class filter-table entry: every
	// admitted packet's class is cached in its slot, carried in the
	// DMA TLP metadata, and counted per class. Nil (the default)
	// leaves every packet class 0 — the exact pre-QoS data plane.
	qosMap       *qos.Map
	classRxPkts  [qos.NumClasses]uint64
	classRxBytes [qos.NumClasses]uint64

	stats Stats
}

// burstsInit is the DMA FIFO's initial capacity (a power of two): two
// cores' 100 Gbps bursts of one ring each queue about 170 bursts behind
// the engine, so runs seldom grow it.
const burstsInit = 256

// burst is one queued DMA transfer: a packet's payload and descriptor
// line writes, or a TX payload's line reads. at and seq are the key of
// its first line (seq is drawn when the burst is queued, as the event
// filing it would have drawn it); every later line keeps seq.
type burst struct {
	at  sim.Time
	seq uint64
	// pay is the first payload line (a read's first line), desc the
	// first descriptor line; nPay lines of payload, n lines in all.
	pay, desc uint64
	nPay, n   uint32
	// head and body are the DW0 of the first line and of every other
	// line, encoded once per burst; a failed encode skips the line.
	head, body       uint32
	headErr, bodyErr bool
	read             bool
}

// New builds a NIC, carving its rings out of the layout. Its DMA
// cursor joins lines, the host's line engine.
func New(cfg Config, ly *mem.Layout, sink Sink, classifier *idiocore.Classifier, fd *FlowDirector, lines *sim.Group) *NIC {
	if cfg.NumQueues <= 0 {
		panic("nic: need at least one queue")
	}
	if cfg.LineRateBps <= 0 {
		panic("nic: line rate must be positive")
	}
	n := &NIC{
		cfg: cfg, sink: sink, classifier: classifier, flowdir: fd,
		irq:    make([]func(*sim.Simulator), cfg.NumQueues),
		lt:     sim.Duration(64 * 8 * int64(sim.Second) / cfg.LineRateBps),
		bursts: make([]burst, burstsInit),
	}
	n.dma = lines.Add(n.stepDMA)
	for i := 0; i < cfg.NumQueues; i++ {
		n.rings = append(n.rings, NewRing(cfg.RingSize, ly))
	}
	return n
}

// OnCompletion sets queue q's interrupt line: fn fires after each
// descriptor write-back on the queue. It replaces any earlier
// handler; nil leaves the queue without one.
func (n *NIC) OnCompletion(q int, fn func(*sim.Simulator)) { n.irq[q] = fn }

// SetObserver attaches the observability layer. A nil observer (the
// default) disables all trace emission at the cost of one branch.
func (n *NIC) SetObserver(o *obs.Observer) { n.obs = o }

// SetWire installs the egress hook: fn receives every transmitted
// packet at its TX-DMA completion time. Nil (the default) disables
// egress delivery — TX stays the historical transmit-and-forget path,
// so single-host runs are unaffected.
func (n *NIC) SetWire(fn func(s *sim.Simulator, p *pkt.Packet)) { n.wire = fn }

// HasWire reports whether an egress hook is installed; callers use it
// to skip packet capture entirely on the historical path.
func (n *NIC) HasWire() bool { return n.wire != nil }

// WirePacket hands a transmitted packet to the egress hook, if one is
// installed. The software stack calls it from TX done callbacks with
// the packet captured before the slot was recycled.
func (n *NIC) WirePacket(s *sim.Simulator, p *pkt.Packet) {
	if n.wire != nil && p != nil {
		n.wire(s, p)
	}
}

// SetPacketPool installs the pool handed to generators that feed this
// port (nil disables discovery; generators fall back to private pools).
func (n *NIC) SetPacketPool(p *pkt.Pool) { n.pktPool = p }

// PacketPool exposes the port's packet pool to traffic generators
// (implements traffic.PacketPooler).
func (n *NIC) PacketPool() *pkt.Pool { return n.pktPool }

// SetQoSMap installs the DSCP→class map in the filter table (nil
// disarms class mapping; every packet reverts to class 0).
func (n *NIC) SetQoSMap(m *qos.Map) { n.qosMap = m }

// ClassRx returns the per-class admitted packet and byte counters
// (all zero without a QoS map installed).
func (n *NIC) ClassRx() (pkts, bytes [qos.NumClasses]uint64) {
	return n.classRxPkts, n.classRxBytes
}

// Ring returns queue q's descriptor ring.
func (n *NIC) Ring(q int) *Ring { return n.rings[q] }

// Stats returns a copy of the counters.
func (n *NIC) Stats() Stats {
	s := n.stats
	for _, r := range n.rings {
		s.RxDrops += r.Drops
		s.PoolDrops += r.PoolDrops
	}
	return s
}

// SetLinkState raises or drops the link. While down, arriving packets
// are lost (counted in LinkDownDrops); DMA already scheduled keeps
// flowing, matching a MAC-level flap.
func (n *NIC) SetLinkState(up bool) { n.linkDown = !up }

// LinkUp reports the current link state.
func (n *NIC) LinkUp() bool { return !n.linkDown }

// StallDMA holds the DMA engine for d beyond its current free point —
// a paced-DMA stall (PCIe credit exhaustion, retrained link). Returns
// when the engine will next be available.
func (n *NIC) StallDMA(now sim.Time, d sim.Duration) sim.Time {
	if n.engineFree < now {
		n.engineFree = now
	}
	n.engineFree = n.engineFree.Add(d)
	return n.engineFree
}

// reserveDMA serialises the DMA engine: returns the start time for
// a transfer of nLines beginning no earlier than now.
func (n *NIC) reserveDMA(now sim.Time, nLines int) (start, end sim.Time) {
	start = now
	if n.engineFree > start {
		start = n.engineFree
	}
	end = start.Add(sim.Duration(int64(n.lt) * int64(nLines)))
	n.engineFree = end
	return start, end
}

// Receive ingests one packet at the current simulation time: steer to
// a core, admit to the ring (or drop), and schedule the paced DMA of
// payload lines followed by the coalesced descriptor write-back.
func (n *NIC) Receive(s *sim.Simulator, p *pkt.Packet) {
	if n.linkDown {
		n.stats.LinkDownDrops++
		n.traceDrop(s, p, -1, "link-down")
		p.Release()
		return
	}
	fields, err := pkt.Parse(p.Frame)
	if err != nil {
		// Undecodable frames are dropped by the parser stage.
		n.stats.RxDrops++
		n.traceDrop(s, p, -1, "parse")
		p.Release()
		return
	}
	coreID := n.flowdir.Steer(fields.Tuple())
	if coreID < 0 || coreID >= n.cfg.NumQueues {
		// A rule steering to a non-existent queue (misprogrammed flow
		// director) drops the packet rather than crashing the device.
		n.stats.MisSteers++
		n.stats.InvariantViolations++
		n.traceDrop(s, p, -1, "missteer")
		p.Release()
		return
	}
	ring := n.rings[coreID]
	if n.cfg.AdmissionWatermark > 0 && ring.Occupancy() >= n.cfg.AdmissionWatermark {
		n.stats.AdmissionDrops++
		n.traceDrop(s, p, coreID, "admission")
		p.Release()
		return
	}
	slot := ring.Produce(p)
	if slot == nil {
		n.traceDrop(s, p, coreID, "ring-full")
		p.Release()
		return // ring full: counted by the ring
	}
	slot.owner = n
	now := s.Now()
	p.ArrivalTimePS = int64(now)
	n.stats.RxPackets++
	n.stats.RxBytes += uint64(p.Len())
	n.flowdir.Note(fields.Tuple(), p.Len())

	appClass := n.classifier.AppClass(fields.DSCP)
	inBurst := n.classifier.AccountPacket(now, coreID, p.Len())
	slot.AppClass = appClass
	// Slots are recycled without clearing, so the class is always
	// (re)stamped here: 0 when no map is installed.
	slot.QoS = 0
	if n.qosMap != nil {
		slot.QoS = uint8(n.qosMap.Class(fields.DSCP))
		n.classRxPkts[slot.QoS]++
		n.classRxBytes[slot.QoS] += uint64(p.Len())
	}

	payload := slot.PayloadRegion()
	nLines := payload.NumLines()
	descLines := slot.Desc.NumLines()
	start, end := n.reserveDMA(now, nLines+descLines)

	if n.obs.TracingPacket(p.Seq) {
		// Attribute the slot's payload and descriptor lines to this
		// packet so downstream placement/writeback/prefetch events can
		// be stitched into its journey, then record admission and the
		// paced DMA span.
		n.obs.MarkLines(p.Seq, payload)
		n.obs.MarkLines(p.Seq, slot.Desc)
		n.obs.Emit(obs.Event{Kind: obs.EvRx, Seq: p.Seq, Core: coreID, At: now, Bytes: p.Len()})
		n.obs.Emit(obs.Event{Kind: obs.EvDMA, Seq: p.Seq, Core: coreID, At: start, Dur: end.Sub(start), Bytes: p.Len()})
	}

	// The burst joins the DMA cursor's FIFO under the seq its own event
	// would have drawn here; the line engine writes every payload line
	// and then every descriptor line at its paced instant (stepDMA).
	b := burst{
		at: start, seq: s.NextSeq(),
		pay: uint64(payload.Base.Line()), desc: uint64(slot.Desc.Base.Line()),
		nPay: uint32(nLines), n: uint32(nLines + descLines),
	}
	b.head, err = n.encodeDW0(slot, coreID, true, inBurst)
	b.headErr = err != nil
	b.body, err = n.encodeDW0(slot, coreID, false, inBurst)
	b.bodyErr = err != nil
	n.queueBurst(b)
	readyAt := end.Add(n.cfg.DescWBDelay)
	s.AtArgNamed(readyAt, "desc-visible", descVisibleEv, sim.Arg{Obj: slot, I0: coreID})
}

// encodeDW0 packs the classifier's metadata for one of slot's DMA
// lines (the header line when isHeader) into a TLP DW0.
func (n *NIC) encodeDW0(slot *Slot, coreID int, isHeader, inBurst bool) (uint32, error) {
	meta := n.classifier.Tag(slot.AppClass, coreID, isHeader, inBurst)
	meta.QoS = slot.QoS
	return pcie.EncodeDW0(meta)
}

// queueBurst appends b to the DMA FIFO, starting the idle cursor at
// b's key.
func (n *NIC) queueBurst(b burst) {
	if n.nBursts == len(n.bursts) {
		grown := make([]burst, 2*len(n.bursts))
		for i := 0; i < n.nBursts; i++ {
			grown[i] = n.bursts[(n.bHead+i)&(len(n.bursts)-1)]
		}
		n.bursts, n.bHead = grown, 0
	}
	n.bursts[(n.bHead+n.nBursts)&(len(n.bursts)-1)] = b
	n.nBursts++
	if n.nBursts == 1 {
		n.line = 0
		n.dma.Start(b.at, b.seq)
	}
}

// stepDMA is the DMA cursor's step: one line of the head burst at its
// paced instant, head burst start + line·lt. The next line keeps the
// burst's seq; the next burst starts at its own key.
func (n *NIC) stepDMA(s *sim.Simulator) (sim.Time, uint64, bool) {
	b := &n.bursts[n.bHead]
	i := n.line
	t := s.Now()
	switch {
	case b.read:
		n.stats.DMAReads++
		n.sink.DMARead(t, b.pay+uint64(i))
	case i == 0 && b.headErr, i > 0 && b.bodyErr:
		// The line's DMA is skipped; the packet degrades rather than
		// the process dying mid-run.
		n.stats.InvariantViolations++
	default:
		line, dw := b.pay+uint64(i), b.body
		if i >= b.nPay {
			line = b.desc + uint64(i-b.nPay)
		}
		if i == 0 {
			dw = b.head
		}
		n.stats.DMAWrites++
		n.sink.DMAWrite(t, pcie.WriteTLP{LineAddr: line, DW0: dw})
	}
	if n.line = i + 1; n.line < b.n {
		return t.Add(n.lt), b.seq, true
	}
	n.bHead = (n.bHead + 1) & (len(n.bursts) - 1)
	n.line = 0
	if n.nBursts--; n.nBursts > 0 {
		next := &n.bursts[n.bHead]
		return next.at, next.seq, true
	}
	return 0, 0, false
}

// descVisibleEv fires a descriptor write-back becoming visible to the
// driver: Arg.Obj is the *Slot (which knows its ring and port), I0 the
// queue. It completes the slot and raises the queue's interrupt line.
func descVisibleEv(sm *sim.Simulator, a sim.Arg) {
	slot := a.Obj.(*Slot)
	n := slot.owner
	coreID := a.I0
	slot.ring.Complete(slot, sm.Now())
	if irq := n.irq[coreID]; irq != nil {
		irq(sm)
	}
}

// traceDrop emits a drop event for a sampled packet.
func (n *NIC) traceDrop(s *sim.Simulator, p *pkt.Packet, coreID int, reason string) {
	if n.obs.TracingPacket(p.Seq) {
		n.obs.Emit(obs.Event{Kind: obs.EvDrop, Seq: p.Seq, Core: coreID, At: s.Now(), Bytes: p.Len(), Arg: reason})
	}
}

// Transmit is the egress path of a zero-copy forwarder (Fig. 1,
// Fig. 3 right): paced PCIe reads of the payload's lines, then the
// completion event fn fires with arg at the engine completion time;
// the software stack uses it to recycle the buffer. Descriptor
// bookkeeping on TX is folded into the line reads. With a
// package-level fn the whole egress schedule is allocation-free (see
// cpu.Env.TransmitAndFree).
func (n *NIC) Transmit(s *sim.Simulator, payload mem.Region, fn sim.ArgEvent, arg sim.Arg) {
	nLines := payload.NumLines()
	start, end := n.reserveDMA(s.Now(), nLines)
	if nLines > 0 {
		n.queueBurst(burst{at: start, seq: s.NextSeq(), pay: uint64(payload.Base.Line()), n: uint32(nLines), read: true})
	}
	n.stats.TxPackets++
	s.AtArgNamed(end, "tx-done", fn, arg)
}

// RegisterMetrics registers the NIC counter set under prefix (e.g.
// "nic.") into the observability registry.
func (n *NIC) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"rx_packets", func() uint64 { return n.Stats().RxPackets })
	reg.CounterFunc(prefix+"rx_bytes", func() uint64 { return n.Stats().RxBytes })
	reg.CounterFunc(prefix+"rx_drops", func() uint64 { return n.Stats().RxDrops })
	reg.CounterFunc(prefix+"pool_drops", func() uint64 { return n.Stats().PoolDrops })
	reg.CounterFunc(prefix+"linkdown_drops", func() uint64 { return n.Stats().LinkDownDrops })
	reg.CounterFunc(prefix+"missteers", func() uint64 { return n.Stats().MisSteers })
	reg.CounterFunc(prefix+"invariant_violations", func() uint64 { return n.Stats().InvariantViolations })
	reg.CounterFunc(prefix+"tx_packets", func() uint64 { return n.Stats().TxPackets })
	reg.CounterFunc(prefix+"dma_writes", func() uint64 { return n.Stats().DMAWrites })
	reg.CounterFunc(prefix+"dma_reads", func() uint64 { return n.Stats().DMAReads })
}
