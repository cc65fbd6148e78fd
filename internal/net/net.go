// Package net is the discrete-event network fabric that connects
// multiple simulated hosts on one sim.Simulator: point-to-point links
// with configurable bandwidth, propagation delay and finite egress
// queues (tail-drop), an output-queued switch, and closed-loop RPC
// clients. It turns the repo's single-server model into a topology —
// N client hosts reaching one DUT server through a switch — so
// experiments can measure end-to-end RPC latency and goodput rather
// than only server-side service time.
//
// Everything in the fabric delivers packets through the shared
// simulator's event queue, whose same-instant FIFO ordering is
// reproducible: two runs of the same topology are bit-identical.
//
// Layering: this package depends only on pkt/sim/obs/stats/traffic.
// Multi-host assembly (a DUT System plus clients) lives in the root
// idio package (Cluster); fault injection attaches from internal/fault.
package net

import (
	"fmt"
	"math"

	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/sim"
)

// Endpoint consumes packets delivered by the fabric. *nic.NIC,
// *Switch, *Client and *Link all satisfy it (the method is identical
// to traffic.Receiver, so generators can target fabric ingress points
// directly).
type Endpoint interface {
	Receive(s *sim.Simulator, p *pkt.Packet)
}

// LinkConfig describes one point-to-point link.
type LinkConfig struct {
	// Name labels the link in metrics and traces (e.g. "c0.up").
	Name string
	// RateBps is the serialization bandwidth in bits per second.
	RateBps int64
	// Delay is the propagation delay added after serialization.
	Delay sim.Duration
	// QueueDepth bounds the egress queue in packets; arrivals beyond
	// it are tail-dropped. 0 means DefaultQueueDepth.
	QueueDepth int
	// AQMTarget, when > 0, enables a CoDel-style active queue manager
	// next to tail-drop: once the queueing delay a packet would see has
	// stayed above AQMTarget for a full AQMInterval, arrivals are
	// dropped at an increasing rate (interval/sqrt(count)) until the
	// delay falls back under target — shedding load early instead of
	// building standing latency. 0 keeps pure tail-drop.
	AQMTarget sim.Duration
	// AQMInterval is the CoDel observation interval; 0 means
	// DefaultAQMInterval.
	AQMInterval sim.Duration
}

// DefaultQueueDepth is the egress queue bound used when a LinkConfig
// leaves QueueDepth zero.
const DefaultQueueDepth = 256

// DefaultAQMInterval is the CoDel observation interval used when a
// LinkConfig enables AQM but leaves AQMInterval zero (the classic
// 100ms RTT-scale default is far too long for a rack fabric).
const DefaultAQMInterval = 100 * sim.Microsecond

// LinkStats counts one link's traffic. Conservation invariant after
// the fabric drains: TxPackets = Delivered, and every offered packet
// is exactly one of {TxPackets, TailDrops, DownDrops, AQMDrops}.
type LinkStats struct {
	// TxPackets/TxBytes count packets accepted into the egress queue
	// (and therefore eventually serialized).
	TxPackets uint64
	TxBytes   uint64
	// Delivered/DeliveredBytes count packets handed to the far end.
	Delivered      uint64
	DeliveredBytes uint64
	// TailDrops counts arrivals rejected by the full egress queue.
	TailDrops uint64
	// DownDrops counts arrivals lost while the link was down (flaps).
	DownDrops uint64
	// AQMDrops counts arrivals shed by the CoDel controller (0 with
	// AQM disabled).
	AQMDrops uint64
	// QueueHighWater is the deepest the egress queue ever got.
	QueueHighWater int
	// BusyTime accumulates serialization time (utilization = BusyTime
	// divided by elapsed time).
	BusyTime sim.Duration
}

// Link is a point-to-point, store-and-forward link: packets serialize
// at RateBps in FIFO order out of a finite egress queue, then arrive
// at the destination Endpoint after the propagation delay.
type Link struct {
	cfg LinkConfig
	dst Endpoint

	// rateBps is the effective rate: cfg.RateBps scaled by an injected
	// degradation factor (SetRateFactor).
	rateBps int64
	factor  float64
	down    bool

	// busyUntil is when the serializer finishes its current queue.
	busyUntil sim.Time
	// qlen is the instantaneous egress-queue depth (packets queued or
	// serializing); inflight additionally counts packets propagating.
	qlen     int
	inflight int

	// codel is the FIFO egress's CoDel controller (AQMTarget > 0), fed
	// the enqueue-time sojourn.
	codel codel

	stats LinkStats
	obs   *obs.Observer

	// pktPool, when set, is the packet pool generators and clients
	// feeding this link draw from (recycling through the fabric).
	pktPool *pkt.Pool

	// qs, when non-nil, switches the egress to scheduled mode: per-class
	// queues under a strict-priority + WRR scheduler (see qsched.go).
	// Nil keeps the exact single-FIFO path below.
	qs *linkSched
}

// SetPacketPool installs the packet pool that traffic sources feeding
// this link should draw from (traffic.PacketPooler).
func (l *Link) SetPacketPool(p *pkt.Pool) { l.pktPool = p }

// PacketPool returns the link's packet pool (nil when unset). It
// implements traffic.PacketPooler so generators targeting the link
// discover the pool automatically.
func (l *Link) PacketPool() *pkt.Pool { return l.pktPool }

// NewLink builds a link feeding dst. The destination may be any
// Endpoint: a switch, a NIC, a client, or another link.
func NewLink(cfg LinkConfig, dst Endpoint) *Link {
	if cfg.RateBps <= 0 {
		panic(fmt.Sprintf("net: link %q rate must be positive", cfg.Name))
	}
	if dst == nil {
		panic(fmt.Sprintf("net: link %q needs a destination", cfg.Name))
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.AQMTarget < 0 || cfg.AQMInterval < 0 {
		panic(fmt.Sprintf("net: link %q AQM target/interval must be >= 0", cfg.Name))
	}
	if cfg.AQMTarget > 0 && cfg.AQMInterval == 0 {
		cfg.AQMInterval = DefaultAQMInterval
	}
	return &Link{cfg: cfg, dst: dst, rateBps: cfg.RateBps, factor: 1}
}

// Name returns the link's label.
func (l *Link) Name() string { return l.cfg.Name }

// Stats returns a copy of the counters.
func (l *Link) Stats() LinkStats { return l.stats }

// InFlight reports packets accepted but not yet delivered (queued,
// serializing, or propagating) — the fabric's idle check.
func (l *Link) InFlight() int { return l.inflight }

// SetObserver attaches the observability layer; sampled packets emit
// an EvLink span covering queueing + serialization + propagation.
func (l *Link) SetObserver(o *obs.Observer) { l.obs = o }

// SetDown raises or drops the link. While down, offered packets are
// lost (DownDrops); packets already serializing or propagating still
// arrive, matching a MAC-level flap.
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports whether the link is currently down.
func (l *Link) Down() bool { return l.down }

// SetRateFactor scales the link's bandwidth by f in (0,1] — the
// transient rate-degradation fault (auto-negotiation fallback,
// interference). Factor 1 restores the configured rate. Packets
// already accepted keep their computed serialization times.
func (l *Link) SetRateFactor(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("net: link %q rate factor %v outside (0,1]", l.cfg.Name, f))
	}
	l.factor = f
	l.rateBps = int64(f * float64(l.cfg.RateBps))
	if l.rateBps < 1 {
		l.rateBps = 1
	}
}

// RateFactor returns the current degradation factor (1 = full rate).
func (l *Link) RateFactor() float64 { return l.factor }

// txTime returns the serialization time of n bytes at the effective
// rate.
func (l *Link) txTime(n int) sim.Duration {
	return sim.Duration(int64(n) * 8 * int64(sim.Second) / l.rateBps)
}

// Receive offers one packet to the link at the current simulation
// time (implements Endpoint, and traffic.Receiver for generators).
// The packet is tail-dropped if the egress queue is full, lost if the
// link is down, and otherwise delivered to the destination after
// queueing + serialization + propagation.
func (l *Link) Receive(s *sim.Simulator, p *pkt.Packet) {
	if l.qs != nil {
		l.receiveScheduled(s, p)
		return
	}
	now := s.Now()
	if l.down {
		l.stats.DownDrops++
		l.traceDrop(s, p, "link-down")
		p.Release()
		return
	}
	if l.qlen >= l.cfg.QueueDepth {
		l.stats.TailDrops++
		l.traceDrop(s, p, "tail-drop")
		p.Release()
		return
	}
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	// The queueing delay this packet would see is known at enqueue
	// time (FIFO serializer), so CoDel runs on it directly instead of
	// waiting for dequeue.
	if l.cfg.AQMTarget > 0 && l.codel.drop(&l.cfg, now, start.Sub(now)) {
		l.stats.AQMDrops++
		l.traceDrop(s, p, "aqm")
		p.Release()
		return
	}
	l.qlen++
	if l.qlen > l.stats.QueueHighWater {
		l.stats.QueueHighWater = l.qlen
	}
	l.inflight++
	l.stats.TxPackets++
	l.stats.TxBytes += uint64(p.Len())

	tx := l.txTime(p.Len())
	end := start.Add(tx)
	l.busyUntil = end
	l.stats.BusyTime += tx

	s.AtArgNamed(end, "link-tx", linkTxEv, sim.Arg{Obj: l})
	l.propagate(s, end.Add(l.cfg.Delay), now, p)
}

// propagate schedules p's arrival at the far end at deliverAt;
// arrival is the packet's arrival at this link (the start of its
// traced link span). Both egress modes, FIFO and scheduled, deliver
// through it.
func (l *Link) propagate(s *sim.Simulator, deliverAt, arrival sim.Time, p *pkt.Packet) {
	s.AtArgNamed(deliverAt, "link-deliver", linkDeliverEv,
		sim.Arg{Obj: l, Obj2: p, U0: uint64(arrival)})
}

// codel is one CoDel controller's state: firstAbove is when the delay
// excursion will have persisted a full interval, dropNext the next
// scheduled drop while in dropping state, count the drops in the
// current dropping episode. The FIFO egress feeds it the enqueue-time
// sojourn (a FIFO serializer knows a packet's wait on arrival); each
// scheduled class queue keeps its own and feeds it the actual sojourn
// at dequeue.
type codel struct {
	firstAbove sim.Time
	dropNext   sim.Time
	count      int
	dropping   bool
}

// drop runs the CoDel control law on one packet with the given
// sojourn (queueing delay) and reports whether to shed it. Below
// cfg.AQMTarget the controller resets; above it, the first full
// AQMInterval of sustained excursion arms dropping, after which drops
// come every interval/sqrt(count) — with count carried over (minus 2)
// when a new episode starts soon after the last, so repeated overload
// ramps the drop rate quickly.
func (c *codel) drop(cfg *LinkConfig, now sim.Time, sojourn sim.Duration) bool {
	if sojourn < cfg.AQMTarget {
		c.firstAbove = 0
		c.dropping = false
		return false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now.Add(cfg.AQMInterval)
		return false
	}
	if now < c.firstAbove {
		return false
	}
	if !c.dropping {
		c.dropping = true
		if c.count > 2 && now.Sub(c.dropNext) < 8*cfg.AQMInterval {
			c.count -= 2
		} else {
			c.count = 1
		}
		c.dropNext = now.Add(c.spacing(cfg.AQMInterval))
		return true
	}
	if now >= c.dropNext {
		c.count++
		c.dropNext = c.dropNext.Add(c.spacing(cfg.AQMInterval))
		return true
	}
	return false
}

// spacing returns the current inter-drop spacing.
func (c *codel) spacing(interval sim.Duration) sim.Duration {
	return sim.Duration(float64(interval) / math.Sqrt(float64(c.count)))
}

// linkTxEv finishes one packet's serialization: Arg.Obj is the *Link.
func linkTxEv(_ *sim.Simulator, a sim.Arg) {
	a.Obj.(*Link).qlen--
}

// linkDeliverEv hands a propagated packet to the far end: Arg.Obj is
// the *Link, Obj2 the *pkt.Packet, U0 the link-arrival time.
func linkDeliverEv(sm *sim.Simulator, a sim.Arg) {
	l := a.Obj.(*Link)
	p := a.Obj2.(*pkt.Packet)
	l.stats.Delivered++
	l.stats.DeliveredBytes += uint64(p.Len())
	l.inflight--
	if l.obs.TracingPacket(p.Seq) {
		l.obs.Emit(obs.Event{
			Kind: obs.EvLink, Seq: p.Seq, Core: -1, At: sm.Now(),
			Dur: sm.Now().Sub(sim.Time(a.U0)), Bytes: p.Len(), Arg: l.cfg.Name,
		})
	}
	l.dst.Receive(sm, p)
}

// traceDrop emits a drop event for a sampled packet.
func (l *Link) traceDrop(s *sim.Simulator, p *pkt.Packet, reason string) {
	if l.obs.TracingPacket(p.Seq) {
		l.obs.Emit(obs.Event{Kind: obs.EvDrop, Seq: p.Seq, Core: -1, At: s.Now(), Bytes: p.Len(), Arg: reason})
	}
}

// RegisterMetrics registers the link's counter set under prefix (e.g.
// "fabric.c0.up.") into the observability registry.
func (l *Link) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"tx_packets", func() uint64 { return l.stats.TxPackets })
	reg.CounterFunc(prefix+"tx_bytes", func() uint64 { return l.stats.TxBytes })
	reg.CounterFunc(prefix+"delivered", func() uint64 { return l.stats.Delivered })
	reg.CounterFunc(prefix+"rx_bytes", func() uint64 { return l.stats.DeliveredBytes })
	reg.CounterFunc(prefix+"tail_drops", func() uint64 { return l.stats.TailDrops })
	reg.CounterFunc(prefix+"down_drops", func() uint64 { return l.stats.DownDrops })
	if l.cfg.AQMTarget > 0 {
		reg.CounterFunc(prefix+"aqm_drops", func() uint64 { return l.stats.AQMDrops })
	}
	reg.GaugeFunc(prefix+"queue_hwm", func() float64 { return float64(l.stats.QueueHighWater) })
	reg.GaugeFunc(prefix+"busy_us", func() float64 { return l.stats.BusyTime.Microseconds() })
	if l.qs != nil {
		l.registerClassMetrics(reg, prefix)
	}
}
