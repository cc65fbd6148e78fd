package net

import (
	"testing"

	"idio/internal/pkt"
	"idio/internal/qos"
	"idio/internal/sim"
	"idio/internal/traffic"
)

func dscpFlow(dscp uint8, srcHost byte) traffic.Flow {
	return traffic.Flow{
		Src: pkt.IPv4{10, 0, 2, srcHost}, Dst: pkt.IPv4{10, 0, 0, 1},
		SrcPort: 7000, DstPort: 9000, FrameLen: 1514, DSCP: dscp,
	}
}

func armedLink(t *testing.T, dst Endpoint, cfg LinkConfig) *Link {
	t.Helper()
	qcfg := qos.DefaultConfig()
	m, err := qcfg.BuildMap()
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	l := NewLink(cfg, dst)
	l.ArmQoS(qcfg, m)
	return l
}

// TestScheduledLinkPriorityOverScavenger: EF and CS1 packets offered
// together at time zero; the scheduler must serialize every EF frame
// before any CS1 frame (after the one CS1 frame that can grab the
// idle serializer first is accounted for), and per-class counters must
// cover the offered load.
func TestScheduledLinkPriorityOverScavenger(t *testing.T) {
	s := sim.New()
	dst := &sink{}
	l := armedLink(t, dst, LinkConfig{Name: "t", RateBps: 10e9, Delay: sim.Microsecond, QueueDepth: 64})
	const each = 20
	s.At(0, func(sm *sim.Simulator) {
		// CS1 first in arrival order: it wins the idle serializer for
		// exactly one frame; everything after must be EF until EF drains.
		for i := 0; i < each; i++ {
			pc, err := dscpFlow(8, 1).Packet(uint64(i))
			if err != nil {
				t.Fatalf("packet: %v", err)
			}
			l.Receive(sm, pc)
			pe, err := dscpFlow(46, 2).Packet(uint64(1000 + i))
			if err != nil {
				t.Fatalf("packet: %v", err)
			}
			l.Receive(sm, pe)
		}
	})
	s.RunUntil(sim.Time(10 * sim.Millisecond))

	cs := l.ClassStats()
	if cs[qos.ClassEF].TxPackets != each || cs[qos.ClassCS1].TxPackets != each {
		t.Fatalf("per-class tx: ef=%d cs1=%d, want %d each",
			cs[qos.ClassEF].TxPackets, cs[qos.ClassCS1].TxPackets, each)
	}
	st := l.Stats()
	if st.TxPackets != 2*each || st.Delivered != 2*each {
		t.Fatalf("aggregate tx=%d delivered=%d, want %d", st.TxPackets, st.Delivered, 2*each)
	}
	if dst.n != 2*each {
		t.Fatalf("sink saw %d, want %d", dst.n, 2*each)
	}
}

// TestScheduledLinkPerClassTailDrop: a scavenger flood fills only the
// CS1 queue; EF frames arriving afterwards are still admitted, and the
// conservation invariant holds per class and in aggregate.
func TestScheduledLinkPerClassTailDrop(t *testing.T) {
	s := sim.New()
	dst := &sink{}
	l := armedLink(t, dst, LinkConfig{Name: "t", RateBps: 10e9, Delay: sim.Microsecond, QueueDepth: 8})
	const flood = 40
	const efN = 4
	s.At(0, func(sm *sim.Simulator) {
		for i := 0; i < flood; i++ {
			p, err := dscpFlow(8, 1).Packet(uint64(i))
			if err != nil {
				t.Fatalf("packet: %v", err)
			}
			l.Receive(sm, p)
		}
		for i := 0; i < efN; i++ {
			p, err := dscpFlow(46, 2).Packet(uint64(1000 + i))
			if err != nil {
				t.Fatalf("packet: %v", err)
			}
			l.Receive(sm, p)
		}
	})
	s.RunUntil(sim.Time(10 * sim.Millisecond))

	cs := l.ClassStats()
	if cs[qos.ClassCS1].TailDrops == 0 {
		t.Fatalf("expected CS1 tail drops with an 8-deep class queue and %d offered", flood)
	}
	if cs[qos.ClassEF].TailDrops != 0 || cs[qos.ClassEF].TxPackets != efN {
		t.Fatalf("EF should be untouched by the CS1 flood: tx=%d drops=%d",
			cs[qos.ClassEF].TxPackets, cs[qos.ClassEF].TailDrops)
	}
	st := l.Stats()
	if got := st.TxPackets + st.TailDrops + st.DownDrops + st.AQMDrops; got != flood+efN {
		t.Fatalf("conservation: %d, want %d", got, flood+efN)
	}
	if st.Delivered != st.TxPackets {
		t.Fatalf("drained link delivered %d of %d accepted", st.Delivered, st.TxPackets)
	}
	if l.InFlight() != 0 {
		t.Fatalf("drained link reports %d in flight", l.InFlight())
	}
}

// TestScheduledLinkWeightedShare: saturate an armed link with AF41 and
// AF21 together; the serialized byte split must approach the 3:1
// configured weights while both stay backlogged.
func TestScheduledLinkWeightedShare(t *testing.T) {
	s := sim.New()
	dst := &sink{}
	l := armedLink(t, dst, LinkConfig{Name: "t", RateBps: 10e9, Delay: sim.Microsecond, QueueDepth: 256})
	const each = 200
	s.At(0, func(sm *sim.Simulator) {
		for i := 0; i < each; i++ {
			p41, err := dscpFlow(34, 1).Packet(uint64(i))
			if err != nil {
				t.Fatalf("packet: %v", err)
			}
			l.Receive(sm, p41)
			p21, err := dscpFlow(18, 2).Packet(uint64(1000 + i))
			if err != nil {
				t.Fatalf("packet: %v", err)
			}
			l.Receive(sm, p21)
		}
	})
	// Run only long enough to serialize ~half the backlog, then check
	// the in-progress split: at 10 Gbps a 1514 B frame takes ~1.21 µs,
	// so 200 frames take ~242 µs.
	s.RunUntil(sim.Time(121 * sim.Microsecond))
	cs := l.ClassStats()
	tx41, tx21 := cs[qos.ClassAF41].TxBytes, cs[qos.ClassAF21].TxBytes
	if tx21 == 0 {
		t.Fatalf("AF21 starved: af41=%dB af21=0B", tx41)
	}
	ratio := float64(tx41) / float64(tx21)
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("AF41:AF21 byte ratio %.2f outside [2,4.5] (af41=%d af21=%d)", ratio, tx41, tx21)
	}
	// Drain and re-check conservation.
	s.RunUntil(sim.Time(10 * sim.Millisecond))
	st := l.Stats()
	if st.TxPackets+st.TailDrops != 2*each || st.Delivered != st.TxPackets {
		t.Fatalf("conservation after drain: tx=%d tail=%d delivered=%d", st.TxPackets, st.TailDrops, st.Delivered)
	}
}

// TestScheduledLinkPerClassAQM drives the per-class, dequeue-time CoDel
// controller to drops: an AF21 stream slightly above the service rate
// builds a standing class queue whose sojourn stays above target, so
// that class sheds via AQM long before its 1024-deep tail, while a
// light EF stream — served first by strict priority — sheds nothing.
// Conservation holds per class (offered = tx + tail + aqm) and in
// aggregate.
func TestScheduledLinkPerClassAQM(t *testing.T) {
	const bulkN, efN = 400, 20
	s := sim.New()
	dst := &sink{}
	l := armedLink(t, dst, LinkConfig{
		Name: "t", RateBps: 10e9, QueueDepth: 1024,
		AQMTarget: 5 * sim.Microsecond, AQMInterval: 20 * sim.Microsecond,
	})
	// 1514 B serializes in ~1.21 us at 10 Gbps: a 1 us AF21 gap grows
	// the class backlog ~0.21 us per packet, as in TestLinkAQMSheds.
	paceInto(t, s, l, dscpFlow(18, 1), bulkN, sim.Microsecond)
	paceInto(t, s, l, dscpFlow(46, 2), efN, 20*sim.Microsecond)
	s.RunUntil(sim.Time(10 * sim.Millisecond))

	cs := l.ClassStats()
	bulk, ef := cs[qos.ClassAF21], cs[qos.ClassEF]
	if bulk.AQMDrops == 0 {
		t.Fatal("AF21 standing queue above target never shed via dequeue-time AQM")
	}
	if bulk.TailDrops != 0 {
		t.Fatalf("AQM should shed before the 1024-deep class tail: %d tail drops", bulk.TailDrops)
	}
	if ef.AQMDrops != 0 || ef.TxPackets != efN {
		t.Fatalf("EF below target must pass untouched: tx=%d aqm=%d", ef.TxPackets, ef.AQMDrops)
	}
	for c, offered := range map[qos.Class]uint64{qos.ClassAF21: bulkN, qos.ClassEF: efN} {
		if got := cs[c].TxPackets + cs[c].TailDrops + cs[c].AQMDrops; got != offered {
			t.Fatalf("%v conservation: tx %d + tail %d + aqm %d = %d, want %d",
				c, cs[c].TxPackets, cs[c].TailDrops, cs[c].AQMDrops, got, offered)
		}
	}
	st := l.Stats()
	if got := st.TxPackets + st.TailDrops + st.DownDrops + st.AQMDrops; got != bulkN+efN {
		t.Fatalf("aggregate conservation: %d, want %d", got, bulkN+efN)
	}
	if st.AQMDrops != bulk.AQMDrops || st.Delivered != st.TxPackets || dst.n != st.Delivered || l.InFlight() != 0 {
		t.Fatalf("drained link: aqm %d (class %d), delivered %d of %d (sink %d), %d in flight",
			st.AQMDrops, bulk.AQMDrops, st.Delivered, st.TxPackets, dst.n, l.InFlight())
	}
}
