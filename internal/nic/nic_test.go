package nic

import (
	"testing"

	idiocore "idio/internal/core"
	"idio/internal/mem"
	"idio/internal/pcie"
	"idio/internal/pkt"
	"idio/internal/sim"
)

// --- Ring tests ---

func newRing(size int) *Ring {
	return NewRing(size, mem.NewLayout(0x10000))
}

func mkPacket(t *testing.T, frameLen int, dscp uint8, srcPort uint16) *pkt.Packet {
	t.Helper()
	f, err := pkt.Build(pkt.Spec{
		SrcIP: pkt.IPv4{10, 0, 0, 1}, DstIP: pkt.IPv4{10, 0, 0, 2},
		SrcPort: srcPort, DstPort: 9000, DSCP: dscp, FrameLen: frameLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &pkt.Packet{Frame: f}
}

func TestRingGeometry(t *testing.T) {
	r := newRing(4)
	if r.Size() != 4 || r.Occupancy() != 0 || r.Full() {
		t.Fatal("fresh ring state wrong")
	}
	slots := r.Slots()
	// Descriptors are 128B apart; mbufs 2KB-aligned, non-overlapping.
	for i := 1; i < len(slots); i++ {
		if slots[i].Desc.Base != slots[0].Desc.Base+mem.Addr(i*mem.DescBytes) {
			t.Fatalf("descriptor %d at %v", i, slots[i].Desc.Base)
		}
		if slots[i].Buf.Base%mem.MbufBytes != 0 {
			t.Fatalf("mbuf %d misaligned at %v", i, slots[i].Buf.Base)
		}
	}
}

// The NIC carves its RX rings and nothing else: on a fresh layout,
// queue 1's descriptors start right after queue 0's last mbuf, and the
// layout spans exactly two rings.
func TestNICCarvesRXRingsOnly(t *testing.T) {
	const size = 16
	ly := mem.NewLayout(0x100000)
	cfg := DefaultConfig(2)
	cfg.RingSize = size
	n := New(cfg, ly, &recordingSink{}, idiocore.NewClassifier(idiocore.DefaultClassifierConfig(2)), NewFlowDirector(2), sim.NewGroup(sim.New()))
	q0, q1 := n.Ring(0).Slots(), n.Ring(1).Slots()
	if end := q0[size-1].Buf.End(); q1[0].Desc.Base != end {
		t.Fatalf("queue 1 descriptors at %v, want right after queue 0's last mbuf at %v", q1[0].Desc.Base, end)
	}
	ring := mem.Addr(size * (mem.DescBytes + mem.MbufBytes))
	if sp := ly.Span(); sp.Base != 0x100000 || sp.End() != sp.Base+2*ring {
		t.Fatalf("layout span %v, want two rings of %d bytes from 0x100000", sp, ring)
	}
}

func TestRingProduceConsumeFreeCycle(t *testing.T) {
	r := newRing(2)
	p := &pkt.Packet{Frame: make([]byte, 100)}
	s1 := r.Produce(p)
	if s1 == nil {
		t.Fatal("produce failed on empty ring")
	}
	if r.Poll(0) != nil {
		t.Fatal("slot must be invisible before Complete")
	}
	r.Complete(s1, 50)
	if r.Poll(49) != nil {
		t.Fatal("slot invisible before ReadyAt")
	}
	got := r.Poll(50)
	if got != s1 {
		t.Fatal("poll must return the completed slot")
	}
	r.Consume()
	if r.Poll(100) != nil {
		t.Fatal("nothing left to poll")
	}
	if r.FreeCount() != 1 {
		t.Fatalf("free count %d", r.FreeCount())
	}
	r.Free()
	if r.Occupancy() != 0 {
		t.Fatal("occupancy after free")
	}
}

func TestRingDropsWhenFull(t *testing.T) {
	r := newRing(2)
	p := &pkt.Packet{Frame: make([]byte, 64)}
	r.Produce(p)
	r.Produce(p)
	if !r.Full() {
		t.Fatal("ring must be full")
	}
	if r.Produce(p) != nil {
		t.Fatal("produce on full ring must fail")
	}
	if r.Drops != 1 {
		t.Fatalf("drops = %d", r.Drops)
	}
}

func TestRingUseDistance(t *testing.T) {
	r := newRing(8)
	p := &pkt.Packet{Frame: make([]byte, 64)}
	for i := 0; i < 5; i++ {
		s := r.Produce(p)
		r.Complete(s, 0)
	}
	if r.UseDistance() != 5 {
		t.Fatalf("use distance %d, want 5", r.UseDistance())
	}
	r.Poll(0)
	r.Consume()
	if r.UseDistance() != 4 {
		t.Fatalf("use distance %d, want 4", r.UseDistance())
	}
}

func TestRingWrapAround(t *testing.T) {
	r := newRing(2)
	p := &pkt.Packet{Frame: make([]byte, 64)}
	for cycle := 0; cycle < 5; cycle++ {
		s := r.Produce(p)
		if s == nil {
			t.Fatalf("cycle %d: produce failed", cycle)
		}
		r.Complete(s, 0)
		if r.Poll(0) != s {
			t.Fatalf("cycle %d: poll mismatch", cycle)
		}
		r.Consume()
		r.Free()
	}
	if r.Occupancy() != 0 {
		t.Fatal("ring must be empty after cycles")
	}
}

func TestRingMisusePanics(t *testing.T) {
	r := newRing(2)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		fn()
	}
	mustPanic("consume empty", r.Consume)
	mustPanic("free unconsumed", r.Free)
}

// --- Flow Director / RSS tests ---

func tuple(srcPort uint16) pkt.FiveTuple {
	return pkt.FiveTuple{
		Src: pkt.IPv4{10, 0, 0, 1}, Dst: pkt.IPv4{10, 0, 0, 2},
		SrcPort: srcPort, DstPort: 9000, Proto: pkt.ProtoUDP,
	}
}

// Known-answer test for Toeplitz using the canonical Microsoft test
// vectors (IPv4 with ports).
func TestToeplitzKnownVectors(t *testing.T) {
	cases := []struct {
		t    pkt.FiveTuple
		want uint32
	}{
		{pkt.FiveTuple{Src: pkt.IPv4{66, 9, 149, 187}, Dst: pkt.IPv4{161, 142, 100, 80}, SrcPort: 2794, DstPort: 1766}, 0x51ccc178},
		{pkt.FiveTuple{Src: pkt.IPv4{199, 92, 111, 2}, Dst: pkt.IPv4{65, 69, 140, 83}, SrcPort: 14230, DstPort: 4739}, 0xc626b0ea},
		{pkt.FiveTuple{Src: pkt.IPv4{24, 19, 198, 95}, Dst: pkt.IPv4{12, 22, 207, 184}, SrcPort: 12898, DstPort: 38024}, 0x5c2b394a},
		{pkt.FiveTuple{Src: pkt.IPv4{38, 27, 205, 30}, Dst: pkt.IPv4{209, 142, 163, 6}, SrcPort: 48228, DstPort: 2217}, 0xafc7327f},
		{pkt.FiveTuple{Src: pkt.IPv4{153, 39, 163, 191}, Dst: pkt.IPv4{202, 188, 127, 2}, SrcPort: 44251, DstPort: 1303}, 0x10e828a2},
	}
	for i, c := range cases {
		if got := Toeplitz(c.t); got != c.want {
			t.Errorf("vector %d: hash %#x, want %#x", i, got, c.want)
		}
	}
}

func TestFlowDirectorEPBeatsATRAndRSS(t *testing.T) {
	fd := NewFlowDirector(4)
	tp := tuple(1000)
	fd.Learn(tp, 2)
	fd.AddEPRule(tp, 3)
	if got := fd.Steer(tp); got != 3 {
		t.Fatalf("EP rule must win: steered to %d", got)
	}
	if fd.EPHits != 1 {
		t.Fatal("EP hit not counted")
	}
}

func TestFlowDirectorATR(t *testing.T) {
	fd := NewFlowDirector(4)
	tp := tuple(2000)
	fd.Learn(tp, 1)
	if got := fd.Steer(tp); got != 1 {
		t.Fatalf("ATR steered to %d, want 1", got)
	}
	if fd.ATRHits != 1 {
		t.Fatal("ATR hit not counted")
	}
}

func TestFlowDirectorRSSFallbackDeterministicAndBounded(t *testing.T) {
	fd := NewFlowDirector(4)
	seen := map[int]bool{}
	for port := uint16(1); port < 200; port++ {
		c1 := fd.Steer(tuple(port))
		c2 := fd.Steer(tuple(port))
		if c1 != c2 {
			t.Fatal("RSS must be deterministic per flow")
		}
		if c1 < 0 || c1 >= 4 {
			t.Fatalf("core %d out of range", c1)
		}
		seen[c1] = true
	}
	if len(seen) < 2 {
		t.Fatal("RSS should spread flows across cores")
	}
	if fd.RSSFalls == 0 {
		t.Fatal("fallbacks not counted")
	}
}

// --- NIC DMA tests ---

// recordingSink captures the TLP stream.
type recordingSink struct {
	writes []pcie.WriteTLP
	wTimes []sim.Time
	reads  []uint64
	rTimes []sim.Time
}

func (r *recordingSink) DMAWrite(now sim.Time, tlp pcie.WriteTLP) sim.Duration {
	r.writes = append(r.writes, tlp)
	r.wTimes = append(r.wTimes, now)
	return 0
}

func (r *recordingSink) DMARead(now sim.Time, line uint64) sim.Duration {
	r.reads = append(r.reads, line)
	r.rTimes = append(r.rTimes, now)
	return 0
}

func newNIC(t *testing.T, queues, ringSize int) (*NIC, *recordingSink, *sim.Simulator) {
	t.Helper()
	sink := &recordingSink{}
	cls := idiocore.NewClassifier(idiocore.DefaultClassifierConfig(queues))
	fd := NewFlowDirector(queues)
	cfg := DefaultConfig(queues)
	cfg.RingSize = ringSize
	cfg.DescWBDelay = 100 * sim.Nanosecond
	s := sim.New()
	n := New(cfg, mem.NewLayout(0x100000), sink, cls, fd, sim.NewGroup(s))
	return n, sink, s
}

func TestReceiveDMAsPayloadThenDescriptor(t *testing.T) {
	n, sink, s := newNIC(t, 1, 16)
	p := mkPacket(t, 1514, 0, 1234)
	s.At(0, func(sm *sim.Simulator) { n.Receive(sm, p) })
	s.Run()
	// 1514B = 24 lines (mbuf is 2KB aligned) + 2 descriptor lines.
	if len(sink.writes) != 26 {
		t.Fatalf("DMA writes = %d, want 26", len(sink.writes))
	}
	// First line carries the header flag; subsequent payload lines
	// don't.
	if !sink.writes[0].Meta().IsHeader {
		t.Fatal("first line must be tagged isHeader")
	}
	for i := 1; i < 24; i++ {
		if sink.writes[i].Meta().IsHeader {
			t.Fatalf("line %d tagged isHeader", i)
		}
	}
	// Lines are paced at the wire rate: monotonically increasing
	// timestamps with equal spacing.
	lt := n.lt
	for i := 1; i < len(sink.wTimes); i++ {
		if sink.wTimes[i].Sub(sink.wTimes[i-1]) != lt {
			t.Fatalf("pacing gap %v at line %d, want %v", sink.wTimes[i].Sub(sink.wTimes[i-1]), i, lt)
		}
	}
	// Payload lines cover the slot's buffer contiguously.
	slot := &n.Ring(0).Slots()[0]
	if sink.writes[0].LineAddr != uint64(slot.Buf.Base.Line()) {
		t.Fatal("first payload line must be the mbuf base")
	}
	// Descriptor lines target the descriptor region.
	if sink.writes[24].LineAddr != uint64(slot.Desc.Base.Line()) {
		t.Fatal("descriptor line mismatch")
	}
}

func TestReceiveVisibilityAfterCoalescing(t *testing.T) {
	n, _, s := newNIC(t, 1, 16)
	p := mkPacket(t, 1514, 0, 42)
	var readyAt sim.Time
	s.At(0, func(sm *sim.Simulator) { n.Receive(sm, p) })
	s.Run()
	ring := n.Ring(0)
	slot := ring.Poll(sim.Time(1 * sim.Millisecond))
	if slot == nil {
		t.Fatal("slot never became visible")
	}
	readyAt = slot.ReadyAt
	// Visibility = 26 line times + 100ns coalescing delay.
	want := sim.Time(26*int64(n.lt)) + sim.Time(100*sim.Nanosecond)
	if readyAt != want {
		t.Fatalf("ready at %v, want %v", readyAt, want)
	}
}

// Each queue has one interrupt line: a later OnCompletion replaces the
// handler, and it fires once per descriptor write-back, at visibility.
func TestOnCompletionOneLinePerQueue(t *testing.T) {
	n, _, s := newNIC(t, 1, 16)
	var first, second int
	var at sim.Time
	n.OnCompletion(0, func(*sim.Simulator) { first++ })
	n.OnCompletion(0, func(sm *sim.Simulator) { second++; at = sm.Now() })
	p := mkPacket(t, 1514, 0, 42)
	s.At(0, func(sm *sim.Simulator) { n.Receive(sm, p) })
	s.Run()
	if first != 0 || second != 1 {
		t.Fatalf("replaced handler fired %d times, current %d; want 0 and 1", first, second)
	}
	if want := sim.Time(26*int64(n.lt)) + sim.Time(100*sim.Nanosecond); at != want {
		t.Fatalf("interrupt at %v, want %v", at, want)
	}
	n.OnCompletion(0, nil)
	s.At(s.Now(), func(sm *sim.Simulator) { n.Receive(sm, mkPacket(t, 1514, 0, 43)) })
	s.Run()
	if second != 1 {
		t.Fatalf("cleared line fired: %d", second)
	}
}

func TestReceiveFullRingDrops(t *testing.T) {
	n, sink, s := newNIC(t, 1, 2)
	for i := 0; i < 5; i++ {
		p := mkPacket(t, 1514, 0, uint16(100+i))
		s.At(sim.Time(i), func(sm *sim.Simulator) { n.Receive(sm, p) })
	}
	s.Run()
	st := n.Stats()
	if st.RxPackets != 2 || st.RxDrops != 3 {
		t.Fatalf("rx=%d drops=%d", st.RxPackets, st.RxDrops)
	}
	// Dropped packets generate no DMA traffic.
	if len(sink.writes) != 2*26 {
		t.Fatalf("writes = %d, want 52", len(sink.writes))
	}
}

func TestReceiveSteersByFlowDirector(t *testing.T) {
	sink := &recordingSink{}
	cls := idiocore.NewClassifier(idiocore.DefaultClassifierConfig(2))
	fd := NewFlowDirector(2)
	cfg := DefaultConfig(2)
	cfg.RingSize = 8
	s := sim.New()
	n := New(cfg, mem.NewLayout(0x100000), sink, cls, fd, sim.NewGroup(s))
	p := mkPacket(t, 200, 0, 7777)
	fields, _ := pkt.Parse(p.Frame)
	fd.AddEPRule(fields.Tuple(), 1)
	s.At(0, func(sm *sim.Simulator) { n.Receive(sm, p) })
	s.Run()
	if n.Ring(1).Occupancy() != 1 || n.Ring(0).Occupancy() != 0 {
		t.Fatal("packet must land on ring 1")
	}
	// TLP metadata must carry destCore 1.
	if sink.writes[0].Meta().DestCore != 1 {
		t.Fatalf("meta %+v", sink.writes[0].Meta())
	}
}

func TestReceiveTagsAppClassFromDSCP(t *testing.T) {
	sink := &recordingSink{}
	clsCfg := idiocore.DefaultClassifierConfig(1)
	clsCfg.ClassOneDSCPs = []uint8{46}
	cls := idiocore.NewClassifier(clsCfg)
	s := sim.New()
	n := New(DefaultConfig(1), mem.NewLayout(0x100000), sink, cls, NewFlowDirector(1), sim.NewGroup(s))
	p := mkPacket(t, 500, 46, 1)
	s.At(0, func(sm *sim.Simulator) { n.Receive(sm, p) })
	s.Run()
	m := sink.writes[1].Meta() // payload line
	if m.AppClass != 1 {
		t.Fatalf("payload meta %+v", m)
	}
	// Header line is class 1 too but flagged header.
	if !sink.writes[0].Meta().IsHeader || sink.writes[0].Meta().AppClass != 1 {
		t.Fatalf("header meta %+v", sink.writes[0].Meta())
	}
}

func TestBurstTaggingAboveThreshold(t *testing.T) {
	n, sink, s := newNIC(t, 1, 64)
	// A 600B packet stays under the 1250B/1us threshold; the next
	// packet in the same window crosses it.
	s.At(0, func(sm *sim.Simulator) { n.Receive(sm, mkPacket(t, 600, 0, 1)) })
	s.At(1, func(sm *sim.Simulator) { n.Receive(sm, mkPacket(t, 1514, 0, 2)) })
	s.Run()
	if sink.writes[0].Meta().IsBurst {
		t.Fatal("first packet under threshold must not be burst-tagged")
	}
	last := sink.writes[len(sink.writes)-1]
	if !last.Meta().IsBurst {
		t.Fatal("second packet must be burst-tagged")
	}
}

func TestTransmitPacedReadsAndCompletion(t *testing.T) {
	n, sink, s := newNIC(t, 1, 16)
	region := mem.Region{Base: 0x200000, Size: 1514}
	var doneAt sim.Time
	done := func(sm *sim.Simulator, a sim.Arg) { *a.Obj.(*sim.Time) = sm.Now() }
	s.At(0, func(sm *sim.Simulator) {
		n.Transmit(sm, region, done, sim.Arg{Obj: &doneAt})
	})
	s.Run()
	if len(sink.reads) != 24 {
		t.Fatalf("reads = %d, want 24", len(sink.reads))
	}
	wantDone := sim.Time(24 * int64(n.lt))
	if doneAt != wantDone {
		t.Fatalf("done at %v, want %v", doneAt, wantDone)
	}
	if n.Stats().TxPackets != 1 {
		t.Fatal("tx not counted")
	}
}

func TestDMAEngineSerialisesAcrossQueues(t *testing.T) {
	n, sink, s := newNIC(t, 2, 16)
	fd := n.flowdir
	p0 := mkPacket(t, 1514, 0, 10)
	p1 := mkPacket(t, 1514, 0, 11)
	f0, _ := pkt.Parse(p0.Frame)
	f1, _ := pkt.Parse(p1.Frame)
	fd.AddEPRule(f0.Tuple(), 0)
	fd.AddEPRule(f1.Tuple(), 1)
	s.At(0, func(sm *sim.Simulator) {
		n.Receive(sm, p0)
		n.Receive(sm, p1)
	})
	s.Run()
	// The second packet's lines must start after the first finishes:
	// all timestamps strictly increasing with uniform spacing.
	for i := 1; i < len(sink.wTimes); i++ {
		if sink.wTimes[i] <= sink.wTimes[i-1] {
			t.Fatalf("engine overlap at %d", i)
		}
	}
	if len(sink.writes) != 52 {
		t.Fatalf("writes %d", len(sink.writes))
	}
}

func TestMalformedFrameDropped(t *testing.T) {
	n, sink, s := newNIC(t, 1, 16)
	s.At(0, func(sm *sim.Simulator) {
		n.Receive(sm, &pkt.Packet{Frame: make([]byte, 20)})
	})
	s.Run()
	if len(sink.writes) != 0 {
		t.Fatal("malformed frame must not DMA")
	}
	if n.Stats().RxDrops != 1 {
		t.Fatal("drop not counted")
	}
}
