// TX descriptor ring: the egress counterpart of the RX ring. The
// driver writes a descriptor (CPU stores into the ring memory), the
// NIC fetches the descriptor and the payload over PCIe, transmits, and
// writes a completion back into the descriptor — which the driver
// polls to recycle buffers. Zero-copy forwarders point TX descriptors
// at RX mbufs, which is what drags consumed RX buffers back through
// the cache hierarchy on the egress path (Fig. 3, right).

package nic

import (
	"fmt"

	"idio/internal/mem"
	"idio/internal/pcie"
	"idio/internal/sim"
)

// TXSlot is one TX ring entry: a 128-byte descriptor.
type TXSlot struct {
	Index int
	Desc  mem.Region
}

// TXRing is a fixed-size transmit descriptor ring.
type TXRing struct {
	size  int
	slots []TXSlot
	head  uint64 // next slot the driver produces into
	tail  uint64 // next slot to complete (NIC completes in order)

	// Drops counts transmissions rejected because the ring was full.
	Drops uint64
}

// NewTXRing allocates the ring's descriptor memory from the layout.
func NewTXRing(size int, ly *mem.Layout) *TXRing {
	if size <= 0 {
		panic(fmt.Sprintf("nic: tx ring size %d", size))
	}
	r := &TXRing{size: size, slots: make([]TXSlot, size)}
	area := ly.Alloc(uint64(size)*mem.DescBytes, mem.LineBytes)
	for i := range r.slots {
		r.slots[i].Index = i
		r.slots[i].Desc = mem.Region{Base: area.Base + mem.Addr(i*mem.DescBytes), Size: mem.DescBytes}
	}
	return r
}

// Size returns the ring capacity.
func (r *TXRing) Size() int { return r.size }

// Occupancy returns in-flight (produced but not completed) slots.
func (r *TXRing) Occupancy() int { return int(r.head - r.tail) }

// Produce reserves the next TX slot; nil when the ring is full.
func (r *TXRing) Produce() *TXSlot {
	if r.Occupancy() == r.size {
		r.Drops++
		return nil
	}
	s := &r.slots[r.head%uint64(r.size)]
	r.head++
	return s
}

// Complete retires the oldest in-flight slot.
func (r *TXRing) Complete() {
	if r.tail == r.head {
		panic("nic: tx complete past head")
	}
	r.tail++
}

// Slots exposes the ring's slots (for Invalidatable registration).
func (r *TXRing) Slots() []TXSlot { return r.slots }

// TXRing returns queue q's transmit ring.
func (n *NIC) TXRing(q int) *TXRing { return n.txRings[q] }

// PrepareTX reserves the next TX descriptor slot for queue q, or nil
// when the ring is full. The driver writes the descriptor (CPU stores
// through the cache hierarchy) and then calls KickTX.
func (n *NIC) PrepareTX(q int) *TXSlot {
	return n.TXRing(q).Produce()
}

// KickTX performs the NIC side of the egress path for a slot returned
// by PrepareTX: fetch the TX descriptor (PCIe reads), fetch the
// payload (PCIe reads — invalidating MLC copies per Fig. 1), and write
// a completion back into the descriptor (a DDIO write). The
// completion event fn (nil for none) fires with arg once the
// completion lands (see NIC.Transmit).
func (n *NIC) KickTX(s *sim.Simulator, q int, slot *TXSlot, payload mem.Region, fn sim.ArgEvent, arg sim.Arg) {
	end := n.kickTX(s, q, slot, payload)
	if fn != nil {
		s.AtArgNamed(end, "tx-done", fn, arg)
	}
}

// kickTX schedules the descriptor/payload fetches and the completion
// write-back, returning the engine completion time.
func (n *NIC) kickTX(s *sim.Simulator, q int, slot *TXSlot, payload mem.Region) sim.Time {
	ring := n.TXRing(q)
	descLines := slot.Desc.NumLines()
	payloadLines := payload.NumLines()
	// DMA reservation: descriptor fetch + payload fetch + 1
	// completion write.
	start, end := n.reserveDMA(s.Now(), descLines+payloadLines+1)
	lt := n.lineTime()
	// Descriptor fetch then payload fetch, each a fused burst of paced
	// line reads (see dmaReadBurstEv) — the two runs cover disjoint
	// paced intervals, so two walker events reproduce the exact
	// pre-fusion line schedule with ~2 scheduler round trips instead of
	// one per line.
	if descLines > 0 {
		s.AtArgNamed(start, "tx-read", dmaReadBurstEv,
			sim.Arg{Obj: n, U0: uint64(slot.Desc.Base.Line()), U1: uint64(descLines)})
	}
	if payloadLines > 0 {
		payloadAt := start.Add(sim.Duration(int64(lt) * int64(descLines)))
		s.AtArgNamed(payloadAt, "tx-read", dmaReadBurstEv,
			sim.Arg{Obj: n, U0: uint64(payload.Base.Line()), U1: uint64(payloadLines)})
	}
	// Completion write-back: one cacheline PCIe write into the
	// descriptor, tagged for the owning core (class 0, not a header).
	complAt := end.Add(-sim.Duration(int64(lt)))
	complLine := slot.Desc.Base.Line()
	meta := n.classifier.Tag(0, q, false, false)
	tlp, err := pcie.NewWriteTLP(uint64(complLine), meta)
	if err != nil {
		// The completion write is skipped but the ring still retires
		// the slot so a faulted DMA cannot wedge the TX path.
		n.stats.InvariantViolations++
		s.AtArgNamed(complAt, "tx-completion", txCompleteFaultedEv, sim.Arg{Obj: ring})
	} else {
		s.AtArgNamed(complAt, "tx-completion", txCompleteEv,
			sim.Arg{Obj: n, Obj2: ring, U0: tlp.LineAddr, U1: uint64(tlp.DW0)})
	}
	n.stats.TxPackets++
	return end
}

// txCompleteEv writes the TX completion line and retires the oldest
// in-flight TX slot: Arg.Obj is the *NIC, Obj2 the *TXRing, U0/U1 the
// completion TLP.
func txCompleteEv(sm *sim.Simulator, a sim.Arg) {
	n := a.Obj.(*NIC)
	n.stats.DMAWrites++
	n.sink.DMAWrite(sm.Now(), pcie.WriteTLP{LineAddr: a.U0, DW0: uint32(a.U1)})
	a.Obj2.(*TXRing).Complete()
}

// txCompleteFaultedEv retires the slot without the (faulted, skipped)
// completion write: Arg.Obj is the *TXRing.
func txCompleteFaultedEv(sm *sim.Simulator, a sim.Arg) {
	a.Obj.(*TXRing).Complete()
}
