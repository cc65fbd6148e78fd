package net

import (
	"fmt"

	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/qos"
	"idio/internal/sim"
)

// SwitchStats counts the switch's forwarding decisions.
type SwitchStats struct {
	// Forwarded counts packets handed to an output link (the link's
	// own queue then admits or tail-drops them — output queueing).
	Forwarded uint64
	// NoRoute counts packets whose destination IP had no route.
	NoRoute uint64
	// ParseDrops counts frames too short to carry an IPv4 header.
	ParseDrops uint64
}

// Switch is a simple output-queued switch: it forwards by destination
// IPv4 address through a static route table, with zero internal
// switching delay — all queueing happens in the output links' finite
// egress queues, the classic output-queued idealization.
type Switch struct {
	name   string
	ports  []*Link
	routes map[pkt.IPv4]int
	stats  SwitchStats
	obs    *obs.Observer

	// qosCfg/qosMap, when set via ArmQoS, arm scheduled egress on
	// every output port — including ports attached afterwards.
	qosCfg *qos.Config
	qosMap *qos.Map
}

// NewSwitch builds an empty switch.
func NewSwitch(name string) *Switch {
	return &Switch{name: name, routes: make(map[pkt.IPv4]int)}
}

// Name returns the switch's label.
func (sw *Switch) Name() string { return sw.name }

// Stats returns a copy of the counters.
func (sw *Switch) Stats() SwitchStats { return sw.stats }

// SetObserver attaches the observability layer; sampled packets emit
// an EvSwitch instant at the forwarding decision.
func (sw *Switch) SetObserver(o *obs.Observer) { sw.obs = o }

// AddPort attaches an output link and returns its port index.
func (sw *Switch) AddPort(out *Link) int {
	if out == nil {
		panic(fmt.Sprintf("net: switch %q port needs a link", sw.name))
	}
	if sw.qosCfg != nil {
		out.ArmQoS(sw.qosCfg, sw.qosMap)
	}
	sw.ports = append(sw.ports, out)
	return len(sw.ports) - 1
}

// Route directs packets destined to ip out of the given port.
func (sw *Switch) Route(ip pkt.IPv4, port int) {
	if port < 0 || port >= len(sw.ports) {
		panic(fmt.Sprintf("net: switch %q route to unknown port %d", sw.name, port))
	}
	sw.routes[ip] = port
}

// dstIPOff is the byte offset of the IPv4 destination address within
// an Ethernet frame (14-byte Ethernet header + 16 bytes into IPv4).
const dstIPOff = pkt.EthHeaderLen + 16

// Receive forwards one frame by destination IP (implements Endpoint).
// Unroutable or undecodable frames are counted and dropped — a switch
// must degrade, never crash.
func (sw *Switch) Receive(s *sim.Simulator, p *pkt.Packet) {
	if len(p.Frame) < dstIPOff+4 {
		sw.stats.ParseDrops++
		sw.traceDrop(s, p, "switch-parse")
		p.Release()
		return
	}
	var dst pkt.IPv4
	copy(dst[:], p.Frame[dstIPOff:dstIPOff+4])
	port, ok := sw.routes[dst]
	if !ok {
		sw.stats.NoRoute++
		sw.traceDrop(s, p, "no-route")
		p.Release()
		return
	}
	sw.stats.Forwarded++
	if sw.obs.TracingPacket(p.Seq) {
		sw.obs.Emit(obs.Event{Kind: obs.EvSwitch, Seq: p.Seq, Core: port, At: s.Now(), Bytes: p.Len(), Arg: sw.name})
	}
	sw.ports[port].Receive(s, p)
}

// traceDrop emits a drop event for a sampled packet.
func (sw *Switch) traceDrop(s *sim.Simulator, p *pkt.Packet, reason string) {
	if sw.obs.TracingPacket(p.Seq) {
		sw.obs.Emit(obs.Event{Kind: obs.EvDrop, Seq: p.Seq, Core: -1, At: s.Now(), Bytes: p.Len(), Arg: reason})
	}
}

// RegisterMetrics registers the switch counters under prefix (e.g.
// "fabric.switch.") into the observability registry.
func (sw *Switch) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"forwarded", func() uint64 { return sw.stats.Forwarded })
	reg.CounterFunc(prefix+"no_route", func() uint64 { return sw.stats.NoRoute })
	reg.CounterFunc(prefix+"parse_drops", func() uint64 { return sw.stats.ParseDrops })
}
