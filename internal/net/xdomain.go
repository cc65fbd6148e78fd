// Cross-domain link plumbing: when a Cluster is sharded into multiple
// event domains, links are the only legal edge between domains. The
// source side of a bound link runs exactly the single-domain queueing
// and serialization, but instead of scheduling the delivery into a
// foreign simulator it parks the packet in its domain's Outbox. At
// every epoch barrier the engine's flush drains all outboxes, sorts
// the accumulated entries by the canonical merge key (deliveryTime,
// sendTime, srcDomain, srcSeq) and injects each into its destination
// domain as one delivery event, which also does the link's delivery
// accounting (xDeliverEv) — so a crossing costs the same number of
// events as an in-domain hop. The order is deterministic but not
// always the shared simulator's: that one serves same-instant sends in
// the order their send events were scheduled, while the key breaks
// the tie by source domain, so per-client timing can differ across
// shard counts (aggregate outputs have stayed identical).
package net

import (
	"fmt"
	"slices"

	"idio/internal/pkt"
	"idio/internal/sim"
)

// XEntry is one packet handed across an event-domain boundary.
type XEntry struct {
	// DeliverAt is when the packet reaches the far end (serialization
	// end + propagation delay); SendAt is when the source accepted it.
	DeliverAt sim.Time
	SendAt    sim.Time
	// Src and Idx complete the deterministic merge key: the producing
	// domain's index and a per-outbox monotone sequence.
	Src int
	Idx uint64
	// Link is the crossing edge; its destination endpoint and
	// simulator were fixed by BindCrossDomain.
	Link *Link
	// Pkt is the packet itself, handed to the far side as is: domains
	// never run at once, so the packet (and the pool it returns to)
	// needs no copy to cross.
	Pkt *pkt.Packet
}

// Outbox accumulates one domain's outbound cross-domain handoffs
// during an epoch. It is owned by the producing domain while an epoch
// runs and by the barrier flush between epochs. Its entry slice is
// reused across barriers, so the steady state adds no allocations.
type Outbox struct {
	domain  int
	entries []XEntry
	idx     uint64
}

// NewOutbox builds the mailbox for the domain with the given index.
func NewOutbox(domain int) *Outbox { return &Outbox{domain: domain} }

// Pending reports entries accumulated since the last Flush — handoffs
// parked outside any simulator (sim.Domain.PendingExternal).
func (o *Outbox) Pending() int { return len(o.entries) }

// add parks p in the outbox until the next flush hands it over.
func (o *Outbox) add(deliverAt, sendAt sim.Time, l *Link, p *pkt.Packet) {
	o.entries = append(o.entries, XEntry{
		DeliverAt: deliverAt, SendAt: sendAt,
		Src: o.domain, Idx: o.idx,
		Link: l, Pkt: p,
	})
	o.idx++
}

// BindCrossDomain marks the link as an event-domain boundary: packets
// it accepts are parked in the source domain's outbox and delivered
// into dstSim when the engine flushes the mailboxes. dstSim must be
// the simulator of the domain owning the link's destination endpoint.
func (l *Link) BindCrossDomain(out *Outbox, dstSim *sim.Simulator) {
	if out == nil || dstSim == nil {
		panic(fmt.Sprintf("net: link %q cross-domain binding needs outbox and destination simulator", l.cfg.Name))
	}
	l.xOut, l.xDstSim = out, dstSim
}

// CrossDomain reports whether the link crosses an event-domain
// boundary.
func (l *Link) CrossDomain() bool { return l.xOut != nil }

// Flush drains every outbox, sorts the union of their entries by the
// canonical merge key and injects each as a delivery event into its
// destination domain. Call only at an epoch barrier, with every
// domain quiescent at a time strictly before the earliest DeliverAt
// (the conservative lookahead guarantees this). scratch is reused
// across barriers to keep the flush allocation-free.
//
// Key order (DeliverAt, SendAt, Src, Idx) reproduces the shared
// simulator's same-instant FIFO: simultaneous deliveries sort by when
// their sources accepted them, then by domain index (clients are
// grouped in slot order), then by within-domain production order.
func Flush(outboxes []*Outbox, scratch *[]XEntry) {
	all := (*scratch)[:0]
	for _, o := range outboxes {
		all = append(all, o.entries...)
		o.entries = o.entries[:0]
	}
	// slices.SortFunc, not sort.Slice: the generic sort neither boxes
	// the slice nor builds a reflect-based swapper, keeping the barrier
	// flush allocation-free.
	slices.SortFunc(all, func(a, b XEntry) int {
		switch {
		case a.DeliverAt != b.DeliverAt:
			return cmpOrder(a.DeliverAt < b.DeliverAt)
		case a.SendAt != b.SendAt:
			return cmpOrder(a.SendAt < b.SendAt)
		case a.Src != b.Src:
			return cmpOrder(a.Src < b.Src)
		default:
			return cmpOrder(a.Idx < b.Idx)
		}
	})
	for i := range all {
		e := &all[i]
		e.Link.xDstSim.AtArgNamed(e.DeliverAt, "xdom-deliver", xDeliverEv, sim.Arg{Obj: e.Link, Obj2: e.Pkt})
		e.Link, e.Pkt = nil, nil
	}
	*scratch = all[:0]
}

// cmpOrder maps a strict less-than to the -1/+1 contract of
// slices.SortFunc. The merge key is a total order (Idx is unique per
// Src), so no two entries ever compare equal and the sort's
// instability is unobservable.
func cmpOrder(less bool) int {
	if less {
		return -1
	}
	return 1
}

// xDeliverEv hands a cross-domain packet to the destination endpoint
// and does the link's delivery accounting — Delivered, DeliveredBytes
// and the in-flight count — at the same instant linkDeliverEv would.
// It runs in the destination domain and touches the source side's
// link state; that is safe because domains never run at once. Readers
// see the same values as with a source-side update: Cluster.Idle reads
// InFlight only at checkpoint barriers, by which time every delivery
// at or before the barrier has run in its destination domain, and
// stats are read at collect.
func xDeliverEv(sm *sim.Simulator, a sim.Arg) {
	l := a.Obj.(*Link)
	p := a.Obj2.(*pkt.Packet)
	l.stats.Delivered++
	l.stats.DeliveredBytes += uint64(p.Len())
	l.inflight--
	l.dst.Receive(sm, p)
}
