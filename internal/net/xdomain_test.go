package net

import (
	"testing"

	"idio/internal/pkt"
	"idio/internal/sim"
)

// seqSink records the delivery order and timing of packets reaching a
// cross-domain destination.
type seqSink struct {
	seqs []uint64
	at   []sim.Time
}

func (k *seqSink) Receive(s *sim.Simulator, p *pkt.Packet) {
	k.seqs = append(k.seqs, p.Seq)
	k.at = append(k.at, s.Now())
	p.Release()
}

// runEpochs mimics the engine's barrier loop for two simulators: run
// both to each barrier, then flush the outboxes.
func runEpochs(src, dst *sim.Simulator, horizon sim.Time, lookahead sim.Duration, outboxes []*Outbox, scratch *[]XEntry) {
	for now := sim.Time(0); now < horizon; {
		next := now + sim.Time(lookahead)
		if next > horizon {
			next = horizon
		}
		src.RunUntil(next)
		dst.RunUntil(next)
		Flush(outboxes, scratch)
		now = next
	}
}

// TestCrossDomainEquivalence runs the same offered load through an
// in-domain link and a cross-domain one and demands identical link
// stats, delivery order and delivery timing.
func TestCrossDomainEquivalence(t *testing.T) {
	const offered = 50
	lcfg := LinkConfig{Name: "t", RateBps: 10e9, Delay: 2 * sim.Microsecond, QueueDepth: 16}
	flow := testFlow(1514)

	// Reference: one simulator, plain link.
	refSim := sim.New()
	refSink := &seqSink{}
	ref := NewLink(lcfg, refSink)
	offer(t, refSim, ref, flow, offered)
	refSim.RunUntil(sim.Time(sim.Millisecond))

	// Cross-domain: source and destination on separate simulators,
	// handoffs through an outbox flushed at 2 µs barriers.
	srcSim, dstSim := sim.New(), sim.New()
	xSink := &seqSink{}
	x := NewLink(lcfg, xSink)
	x.BindCrossDomain(NewOutbox(0), dstSim)
	if !x.CrossDomain() {
		t.Fatal("CrossDomain false after binding")
	}
	offer(t, srcSim, x, flow, offered)
	var scratch []XEntry
	runEpochs(srcSim, dstSim, sim.Time(sim.Millisecond), lcfg.Delay, []*Outbox{x.xOut}, &scratch)

	if rs, xs := ref.Stats(), x.Stats(); rs != xs {
		t.Fatalf("link stats diverge:\n  in-domain  %+v\n  cross-dom  %+v", rs, xs)
	}
	if len(refSink.seqs) != len(xSink.seqs) {
		t.Fatalf("delivered %d cross-domain, want %d", len(xSink.seqs), len(refSink.seqs))
	}
	for i := range refSink.seqs {
		if refSink.seqs[i] != xSink.seqs[i] || refSink.at[i] != xSink.at[i] {
			t.Fatalf("delivery %d: got seq=%d at %v, want seq=%d at %v",
				i, xSink.seqs[i], xSink.at[i], refSink.seqs[i], refSink.at[i])
		}
	}
	if x.InFlight() != 0 {
		t.Errorf("cross-domain link reports %d in flight after drain", x.InFlight())
	}
	if x.xOut.Pending() != 0 {
		t.Errorf("outbox holds %d entries after drain", x.xOut.Pending())
	}
}

// TestFlushMergeOrder checks the canonical merge key: same-instant
// deliveries from different domains are injected in (SendAt, Src, Idx)
// order, reproducing the shared simulator's FIFO.
func TestFlushMergeOrder(t *testing.T) {
	dstSim := sim.New()
	pool := pkt.NewPool(0)
	sink := &seqSink{}
	mk := func(domain int) (*Link, *Outbox) {
		l := NewLink(LinkConfig{Name: "x", RateBps: 100e9, Delay: sim.Microsecond}, sink)
		out := NewOutbox(domain)
		l.BindCrossDomain(out, dstSim)
		return l, out
	}
	l1, o1 := mk(1)
	l2, o2 := mk(2)

	at := sim.Time(10 * sim.Microsecond)
	p := func(seq uint64) *pkt.Packet {
		pk := pool.Get(64)
		pk.Seq = seq
		return pk
	}
	// Same DeliverAt everywhere. Entries added out of global order:
	// domain 2 first, and within domain 1 a later SendAt before an
	// earlier one from domain 2.
	o2.add(at, 5, l2, p(20)) // key (10µs, 5, 2, 0)
	o1.add(at, 7, l1, p(11)) // key (10µs, 7, 1, 0)
	o1.add(at, 5, l1, p(10)) // key (10µs, 5, 1, 1)
	o2.add(at, 7, l2, p(21)) // key (10µs, 7, 2, 1)

	var scratch []XEntry
	Flush([]*Outbox{o1, o2}, &scratch)
	dstSim.RunUntil(at + 1)

	want := []uint64{10, 20, 11, 21} // SendAt asc, then Src asc, then Idx asc
	if len(sink.seqs) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(sink.seqs), len(want))
	}
	for i, w := range want {
		if sink.seqs[i] != w {
			t.Fatalf("merge order %v, want %v", sink.seqs, want)
		}
	}
}

// handSink records the last packet it was handed and releases it.
type handSink struct{ got *pkt.Packet }

func (k *handSink) Receive(_ *sim.Simulator, p *pkt.Packet) {
	k.got = p
	p.Release()
}

// TestOutboxRecycling checks the pointer handoff: the far side receives
// the very packet the source parked, a warm handoff allocates nothing
// (the outbox and the flush scratch are reused across barriers), and
// every packet is back in the shared pool after the drain.
func TestOutboxRecycling(t *testing.T) {
	dstSim := sim.New()
	pool := pkt.NewPool(0)
	sink := &handSink{}
	l := NewLink(LinkConfig{Name: "x", RateBps: 100e9, Delay: sim.Microsecond}, sink)
	out := NewOutbox(0)
	l.BindCrossDomain(out, dstSim)

	var scratch []XEntry
	handoff := func() *pkt.Packet {
		p := pool.Get(256)
		out.add(dstSim.Now()+1, dstSim.Now(), l, p)
		Flush([]*Outbox{out}, &scratch)
		dstSim.RunUntil(dstSim.Now() + 2)
		return p
	}
	// The first barrier sizes the outbox and scratch and checks identity.
	if p := handoff(); sink.got != p {
		t.Fatalf("far side received %p, want the parked packet %p", sink.got, p)
	}

	allocs := testing.AllocsPerRun(100, func() { handoff() })
	if allocs > 0 {
		t.Errorf("steady-state cross-domain handoff allocates %.1f/op, want 0", allocs)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Errorf("pool holds %d outstanding packets after drain, want 0", n)
	}
}

// TestCrossDomainDeliveryAccounting pins where a crossing's delivery
// accounting happens: the source domain schedules nothing for it, and
// the link keeps the packet in flight — undelivered — until the
// destination domain runs the delivery event at DeliverAt.
func TestCrossDomainDeliveryAccounting(t *testing.T) {
	srcSim, dstSim := sim.New(), sim.New()
	sink := &seqSink{}
	lcfg := LinkConfig{Name: "x", RateBps: 10e9, Delay: 2 * sim.Microsecond}
	l := NewLink(lcfg, sink)
	l.BindCrossDomain(NewOutbox(0), dstSim)
	offer(t, srcSim, l, testFlow(1514), 1)

	// The source runs past serialization: only its link-tx event ran,
	// and the packet waits in the outbox.
	srcSim.RunUntil(sim.Time(lcfg.Delay))
	if n := srcSim.Pending(); n != 0 {
		t.Fatalf("source domain holds %d events after handing the packet off, want 0", n)
	}
	if l.xOut.Pending() != 1 {
		t.Fatalf("outbox holds %d entries, want 1", l.xOut.Pending())
	}
	deliverAt := l.xOut.entries[0].DeliverAt

	var scratch []XEntry
	Flush([]*Outbox{l.xOut}, &scratch)
	check := func(when string, inflight int, delivered uint64) {
		t.Helper()
		if got := l.InFlight(); got != inflight {
			t.Errorf("%s: InFlight()=%d, want %d", when, got, inflight)
		}
		if got := l.Stats().Delivered; got != delivered {
			t.Errorf("%s: Delivered=%d, want %d", when, got, delivered)
		}
	}
	check("after flush", 1, 0)
	dstSim.RunUntil(deliverAt - 1)
	check("destination just before DeliverAt", 1, 0)
	dstSim.RunUntil(deliverAt)
	check("destination at DeliverAt", 0, 1)
	if st := l.Stats(); st.DeliveredBytes != st.TxBytes {
		t.Errorf("DeliveredBytes=%d, want TxBytes %d", st.DeliveredBytes, st.TxBytes)
	}
	if len(sink.at) != 1 || sink.at[0] != deliverAt {
		t.Errorf("far side received at %v, want one packet at %v", sink.at, deliverAt)
	}
}
