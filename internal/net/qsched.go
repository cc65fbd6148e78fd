// Scheduled egress mode: when a link is armed with a QoS policy
// (ArmQoS), its single FIFO egress queue is replaced by per-class
// queues drained through a strict-priority + weighted-round-robin
// scheduler (internal/qos). Tail-drop bounds each class's own queue,
// and the CoDel controller — which cannot run at enqueue time any more
// because a scheduled packet's wait is unknown until it is picked —
// moves to dequeue time, operating per class on the actual sojourn.
//
// Accounting in scheduled mode: TxPackets/TxBytes/BusyTime count at
// dequeue-commit (when a packet is accepted into the serializer), so
// the conservation invariant "offered = TxPackets + TailDrops +
// DownDrops + AQMDrops" still holds after a drain. Beyond the
// serializer both modes share one delivery path (Link.propagate):
// propagation and trace spans.

package net

import (
	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/qos"
	"idio/internal/sim"
)

// ClassStats is one scheduled link's per-class counter set.
type ClassStats struct {
	TxPackets uint64
	TxBytes   uint64
	TailDrops uint64
	AQMDrops  uint64
}

// schedEntry is one queued packet with its arrival instant (the CoDel
// sojourn reference).
type schedEntry struct {
	p       *pkt.Packet
	arrival sim.Time
}

// classQueue is one class's fixed-capacity egress ring plus its
// private CoDel controller and counters. Each class keeps its own
// controller so one bufferbloated class cannot arm drops against
// another.
type classQueue struct {
	ring  []schedEntry
	head  int
	count int

	codel codel

	stats ClassStats
}

// linkSched is the scheduled-mode state hung off a Link by ArmQoS.
type linkSched struct {
	qmap        *qos.Map
	sched       *qos.Sched
	classes     [qos.NumClasses]classQueue
	backlog     [qos.NumClasses]int
	serializing bool
}

// ArmQoS replaces the link's FIFO egress with per-class queues under
// the policy's scheduler. Class queue depths default to the link's
// own QueueDepth. Arming is idempotent and must happen before traffic
// flows; an unarmed link is byte-identical to pre-QoS builds.
func (l *Link) ArmQoS(cfg *qos.Config, m *qos.Map) {
	if l.qs != nil {
		return
	}
	qs := &linkSched{qmap: m, sched: qos.NewSched(cfg)}
	for c := range qs.classes {
		depth := cfg.Classes[c].QueueDepth
		if depth <= 0 {
			depth = l.cfg.QueueDepth
		}
		qs.classes[c].ring = make([]schedEntry, depth)
	}
	l.qs = qs
}

// QoSArmed reports whether the link runs the scheduled egress mode.
func (l *Link) QoSArmed() bool { return l.qs != nil }

// ClassStats returns the per-class counters (zero unless armed).
func (l *Link) ClassStats() [qos.NumClasses]ClassStats {
	var out [qos.NumClasses]ClassStats
	if l.qs == nil {
		return out
	}
	for c := range out {
		out[c] = l.qs.classes[c].stats
	}
	return out
}

// frameClass maps a frame's DSCP to its service class. Frames too
// short to carry a TOS byte get the map's default class.
func (l *Link) frameClass(p *pkt.Packet) qos.Class {
	const tosOff = pkt.EthHeaderLen + 1
	if len(p.Frame) <= tosOff {
		return l.qs.qmap.Class(0)
	}
	return l.qs.qmap.Class(p.Frame[tosOff] >> 2)
}

// receiveScheduled is Receive for an armed link: classify, tail-drop
// against the class queue, enqueue, and kick the serializer if idle.
func (l *Link) receiveScheduled(s *sim.Simulator, p *pkt.Packet) {
	if l.down {
		l.stats.DownDrops++
		l.traceDrop(s, p, "link-down")
		p.Release()
		return
	}
	class := int(l.frameClass(p))
	cq := &l.qs.classes[class]
	if cq.count >= len(cq.ring) {
		l.stats.TailDrops++
		cq.stats.TailDrops++
		l.traceDrop(s, p, "tail-drop")
		p.Release()
		return
	}
	cq.ring[(cq.head+cq.count)%len(cq.ring)] = schedEntry{p: p, arrival: s.Now()}
	cq.count++
	l.qs.backlog[class]++
	l.qlen++
	if l.qlen > l.stats.QueueHighWater {
		l.stats.QueueHighWater = l.qlen
	}
	l.inflight++
	if !l.qs.serializing {
		l.schedNext(s)
	}
}

// schedNext commits the scheduler's next pick to the serializer (or
// parks it when every queue is empty). Dequeue-time CoDel sheds
// over-sojourned packets here, before they consume line time.
func (l *Link) schedNext(s *sim.Simulator) {
	now := s.Now()
	for {
		class := l.qs.sched.Pick(&l.qs.backlog)
		if class < 0 {
			l.qs.serializing = false
			return
		}
		cq := &l.qs.classes[class]
		e := cq.ring[cq.head]
		cq.ring[cq.head] = schedEntry{}
		cq.head = (cq.head + 1) % len(cq.ring)
		cq.count--
		l.qs.backlog[class]--
		if l.cfg.AQMTarget > 0 && cq.codel.drop(&l.cfg, now, now.Sub(e.arrival)) {
			l.stats.AQMDrops++
			cq.stats.AQMDrops++
			l.qlen--
			l.inflight--
			l.traceDrop(s, e.p, "aqm")
			e.p.Release()
			continue
		}
		l.qs.sched.Charge(class, e.p.Len())
		cq.stats.TxPackets++
		cq.stats.TxBytes += uint64(e.p.Len())
		l.stats.TxPackets++
		l.stats.TxBytes += uint64(e.p.Len())
		tx := l.txTime(e.p.Len())
		end := now.Add(tx)
		l.busyUntil = end
		l.stats.BusyTime += tx
		l.qs.serializing = true
		s.AtArgNamed(end, "link-qtx", linkQTxEv, sim.Arg{Obj: l, Obj2: e.p, U0: uint64(e.arrival)})
		return
	}
}

// linkQTxEv finishes one scheduled packet's serialization: Arg.Obj is
// the *Link, Obj2 the *pkt.Packet, U0 the link-arrival time. The
// packet propagates through Link.propagate, then the serializer picks
// again.
func linkQTxEv(sm *sim.Simulator, a sim.Arg) {
	l := a.Obj.(*Link)
	l.qlen--
	now := sm.Now()
	l.propagate(sm, now.Add(l.cfg.Delay), sim.Time(a.U0), a.Obj2.(*pkt.Packet))
	l.qs.serializing = false
	l.schedNext(sm)
}

// registerClassMetrics adds the armed link's per-class counters to the
// registry (called from RegisterMetrics when armed).
func (l *Link) registerClassMetrics(reg *obs.Registry, prefix string) {
	for c := 0; c < qos.NumClasses; c++ {
		c := c
		cp := prefix + qos.Class(c).String() + "."
		reg.CounterFunc(cp+"tx_packets", func() uint64 { return l.qs.classes[c].stats.TxPackets })
		reg.CounterFunc(cp+"tail_drops", func() uint64 { return l.qs.classes[c].stats.TailDrops })
		if l.cfg.AQMTarget > 0 {
			reg.CounterFunc(cp+"aqm_drops", func() uint64 { return l.qs.classes[c].stats.AQMDrops })
		}
	}
}

// ArmQoS arms the scheduled egress mode on every attached output port
// and remembers the policy so ports attached later (AddPort) are armed
// too — the switch's egress is where inter-class contention happens.
func (sw *Switch) ArmQoS(cfg *qos.Config, m *qos.Map) {
	sw.qosCfg, sw.qosMap = cfg, m
	for _, port := range sw.ports {
		port.ArmQoS(cfg, m)
	}
}
