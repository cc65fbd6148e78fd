// Package traffic implements the load generators of Sec. VI: steady
// constant-rate streams and bursty streams defined by burst period,
// burst rate, and packets-per-burst (the paper sizes each burst to
// exactly fill the DMA ring). This stands in for DPDK pktgen and the
// hardware load-generator model used with gem5.
//
// Generators are allocation-free in steady state: each flow's frame is
// built once as an immutable pkt.Template, and every emission stamps
// the per-packet fields (sequence number, checksum delta) into a
// packet recycled through a pkt.Pool. The pool is discovered from the
// receiver when it exposes one (the NIC does — so packets return to
// the pool when the ring slot is freed), otherwise the generator owns
// a private pool that packets come back to via Packet.Release.
package traffic

import (
	"fmt"
	"math/rand"
	"sort"

	"idio/internal/pkt"
	"idio/internal/sim"
)

// Receiver consumes generated packets (the NIC implements this).
type Receiver interface {
	Receive(s *sim.Simulator, p *pkt.Packet)
}

// PacketPooler is implemented by receivers that own a packet pool the
// generator should draw from (the NIC's System pool; links delegate to
// their endpoint). Drawing from the consumer's pool closes the recycle
// loop — generator → ring → service → free — inside one pool.
type PacketPooler interface {
	PacketPool() *pkt.Pool
}

// poolFor resolves the pool a generator draws from: an explicit
// override first, then the receiver's own pool, then a private one.
func poolFor(override *pkt.Pool, rx Receiver) *pkt.Pool {
	if override != nil {
		return override
	}
	if pp, ok := rx.(PacketPooler); ok {
		if p := pp.PacketPool(); p != nil {
			return p
		}
	}
	return pkt.NewPool(0)
}

// Flow describes the packets of one generated stream.
type Flow struct {
	Src, Dst         pkt.IPv4
	SrcPort, DstPort uint16
	// DSCP encodes the sender's application class (Sec. V-A).
	DSCP uint8
	// FrameLen is the total frame size (1514 unless stated otherwise).
	FrameLen int
}

// Tuple returns the flow's 5-tuple as seen by the NIC.
func (f Flow) Tuple() pkt.FiveTuple {
	return pkt.FiveTuple{Src: f.Src, Dst: f.Dst, SrcPort: f.SrcPort, DstPort: f.DstPort, Proto: pkt.ProtoUDP}
}

// Spec returns the frame spec for the flow's seq-th packet.
func (f Flow) Spec(seq uint64) pkt.Spec {
	return pkt.Spec{
		SrcMAC: pkt.MAC{0x02, 0, 0, 0, 0, 0x10}, DstMAC: pkt.MAC{0x02, 0, 0, 0, 0, 0x20},
		SrcIP: f.Src, DstIP: f.Dst, SrcPort: f.SrcPort, DstPort: f.DstPort,
		DSCP: f.DSCP, FrameLen: f.FrameLen, Seq: seq,
	}
}

// Template builds the flow's immutable frame template (see
// pkt.Template): the once-per-flow half of the zero-allocation path.
func (f Flow) Template() (*pkt.Template, error) {
	return pkt.NewTemplate(f.Spec(0))
}

func (f Flow) build(seq uint64) (*pkt.Packet, error) {
	frame, err := pkt.Build(f.Spec(seq))
	if err != nil {
		return nil, err
	}
	return &pkt.Packet{Frame: frame, Seq: seq}, nil
}

// Packet builds the flow's seq-th frame — the exported one-shot form,
// byte-identical to what the template path stamps, used for validation
// and tests (fabric clients stamp templates on their hot path).
func (f Flow) Packet(seq uint64) (*pkt.Packet, error) { return f.build(seq) }

// InterArrival returns the packet spacing for a given rate and frame
// length (frame bits divided by rate).
func InterArrival(rateBps int64, frameLen int) sim.Duration {
	if rateBps <= 0 {
		panic("traffic: non-positive rate")
	}
	return sim.Duration(int64(frameLen) * 8 * int64(sim.Second) / rateBps)
}

// Steady generates a constant-rate stream of Count packets starting at
// Start. Count 0 means "until Stop".
type Steady struct {
	Flow    Flow
	RateBps int64
	Start   sim.Time
	// Count limits the number of packets; if zero, Stop bounds the
	// stream instead.
	Count uint64
	Stop  sim.Time
	// Pool, when non-nil, overrides packet-pool discovery (see
	// PacketPooler). Tests inject pkt.NewNullPool here to prove pooling
	// does not perturb simulation output.
	Pool *pkt.Pool
}

// steadyRun is the per-stream emission state: one of these (plus one
// stored event closure) is the stream's entire allocation budget —
// every packet after that comes stamped out of the pool.
type steadyRun struct {
	tmpl   *pkt.Template
	pool   *pkt.Pool
	rx     Receiver
	gap    sim.Duration
	n      uint64
	seq    uint64
	emitFn sim.Event
}

func (r *steadyRun) emit(sm *sim.Simulator) {
	p := r.pool.Get(r.tmpl.FrameLen())
	r.tmpl.Stamp(p, r.seq)
	r.seq++
	r.rx.Receive(sm, p)
	if r.seq < r.n {
		sm.After(r.gap, r.emitFn)
	}
}

// Install schedules the stream's arrivals on the simulator. It returns
// the number of packets that will be generated when Count is set,
// otherwise an estimate from the window.
func (g Steady) Install(s *sim.Simulator, rx Receiver) uint64 {
	gap := InterArrival(g.RateBps, g.Flow.FrameLen)
	n := g.Count
	if n == 0 {
		if g.Stop <= g.Start {
			panic("traffic: steady stream needs Count or Stop > Start")
		}
		n = uint64(g.Stop.Sub(g.Start)/gap) + 1
	}
	tmpl, err := g.Flow.Template()
	if err != nil {
		panic(fmt.Sprintf("traffic: %v", err))
	}
	run := &steadyRun{tmpl: tmpl, pool: poolFor(g.Pool, rx), rx: rx, gap: gap, n: n}
	run.emitFn = run.emit
	s.AtNamed(g.Start, "steady-start", run.emitFn)
	return n
}

// Bursty generates bursts per Sec. VI: every Period, a burst of
// PacketsPerBurst packets paced at BurstRateBps. The burst length
// therefore equals (PacketsPerBurst-1) * frame_bits / rate, matching
// the paper's "receive exactly ring-buffer-size packets per burst"
// construction.
type Bursty struct {
	Flow            Flow
	BurstRateBps    int64
	Period          sim.Duration // 10 ms in the paper
	PacketsPerBurst int
	Start           sim.Time
	NumBursts       int
}

// BurstLength returns the intra-burst duration from first to last
// packet.
func (g Bursty) BurstLength() sim.Duration {
	gap := InterArrival(g.BurstRateBps, g.Flow.FrameLen)
	return sim.Duration(int64(gap) * int64(g.PacketsPerBurst-1))
}

// burstRun is one bursty stream's emission state. The arrival times
// follow from the stream's geometry, so the stream keeps exactly one
// pending event: each emission files its successor under the seq
// Install reserved for it (see sim.ReserveSeqs), reproducing the
// pre-scheduled (at, seq) order with O(1) state.
type burstRun struct {
	g    Bursty
	tmpl *pkt.Template
	pool *pkt.Pool
	rx   Receiver
	gap  sim.Duration
	seq0 uint64 // reserved seq of packet 0; packet k rides under seq0+k
	next uint64 // sequence number of the packet the pending event emits
	n    uint64
}

// at returns the arrival time of the stream's k-th packet.
func (r *burstRun) at(k uint64) sim.Time {
	b, i := k/uint64(r.g.PacketsPerBurst), k%uint64(r.g.PacketsPerBurst)
	return r.g.Start.Add(sim.Duration(int64(r.g.Period)*int64(b) + int64(r.gap)*int64(i)))
}

// emitBurstPkt fires one emission (Arg.Obj is the *burstRun). The
// successor is filed before the packet is handed on, so the scheduler
// always holds the stream's earliest remaining arrival.
func emitBurstPkt(sm *sim.Simulator, a sim.Arg) {
	r := a.Obj.(*burstRun)
	seq := r.next
	r.next++
	if r.next < r.n {
		sm.AtArgSeq(r.at(r.next), r.seq0+r.next, emitBurstPkt, a)
	}
	p := r.pool.Get(r.tmpl.FrameLen())
	r.tmpl.Stamp(p, seq)
	r.rx.Receive(sm, p)
}

// Install schedules the stream. Returns total packets generated.
func (g Bursty) Install(s *sim.Simulator, rx Receiver) uint64 {
	if g.PacketsPerBurst <= 0 || g.NumBursts <= 0 {
		panic("traffic: bursty stream needs packets and bursts")
	}
	if g.Period <= 0 {
		panic("traffic: bursty stream needs a period")
	}
	if g.BurstLength() >= g.Period {
		panic(fmt.Sprintf("traffic: burst length %v exceeds period %v", g.BurstLength(), g.Period))
	}
	tmpl, err := g.Flow.Template()
	if err != nil {
		panic(fmt.Sprintf("traffic: %v", err))
	}
	n := uint64(g.NumBursts) * uint64(g.PacketsPerBurst)
	run := &burstRun{
		g: g, tmpl: tmpl, pool: poolFor(nil, rx), rx: rx,
		gap: InterArrival(g.BurstRateBps, g.Flow.FrameLen), n: n,
	}
	// Bursts never overlap (checked above), so packet order is arrival
	// order and the stream's schedule is monotone in k.
	run.seq0 = s.ReserveSeqs(n)
	s.AtArgSeq(run.at(0), run.seq0, emitBurstPkt, sim.Arg{Obj: run})
	return n
}

// Poisson generates a memoryless arrival process at the given average
// rate: exponential inter-arrival times with mean frame_bits/rate.
// Deterministic for a fixed seed. Poisson arrivals produce the bursty
// micro-scale queueing that stresses tail latency even at moderate
// average load.
type Poisson struct {
	Flow    Flow
	RateBps int64
	Start   sim.Time
	Count   uint64
	Seed    int64
}

// poissonRun mirrors steadyRun with an exponential gap draw per
// emission (the rng is seeded at install, so replays are identical).
type poissonRun struct {
	tmpl   *pkt.Template
	pool   *pkt.Pool
	rx     Receiver
	rng    *rand.Rand
	mean   float64
	n      uint64
	seq    uint64
	emitFn sim.Event
}

func (r *poissonRun) emit(sm *sim.Simulator) {
	p := r.pool.Get(r.tmpl.FrameLen())
	r.tmpl.Stamp(p, r.seq)
	r.seq++
	r.rx.Receive(sm, p)
	if r.seq < r.n {
		gap := sim.Duration(r.rng.ExpFloat64() * r.mean)
		if gap < 1 {
			gap = 1
		}
		sm.After(gap, r.emitFn)
	}
}

// Install schedules the stream's arrivals.
func (g Poisson) Install(s *sim.Simulator, rx Receiver) uint64 {
	if g.Count == 0 {
		panic("traffic: poisson stream needs Count")
	}
	tmpl, err := g.Flow.Template()
	if err != nil {
		panic(fmt.Sprintf("traffic: %v", err))
	}
	run := &poissonRun{
		tmpl: tmpl, pool: poolFor(nil, rx), rx: rx,
		rng:  rand.New(rand.NewSource(g.Seed)),
		mean: float64(InterArrival(g.RateBps, g.Flow.FrameLen)),
		n:    g.Count,
	}
	run.emitFn = run.emit
	s.AtNamed(g.Start, "poisson-start", run.emitFn)
	return g.Count
}

// Trace replays an explicit arrival schedule: one packet per entry at
// the given absolute times, with per-packet frame lengths (zero
// entries fall back to the flow's FrameLen). This models pcap-style
// workload replay.
type Trace struct {
	Flow     Flow
	Times    []sim.Time
	FrameLen []int // optional; parallel to Times
}

// traceRun is one trace replay's emission state. Entries fire in
// (time, index) order — entry i under the seq Install reserved for it,
// exactly the order of filing every entry up front — with one pending
// event: each emission files its successor. A sorted trace needs no
// per-entry state beyond the caller's slices; an unsorted one keeps the
// sorted permutation in order.
type traceRun struct {
	times []sim.Time
	flens []int
	order []int32               // entries by (time, index); nil when Times is sorted
	tmpls map[int]*pkt.Template // one template per frame length in use
	def   int                   // the flow's FrameLen
	pool  *pkt.Pool
	rx    Receiver
	seq0  uint64 // reserved seq of entry 0; entry i rides under seq0+i
	next  int    // position in firing order of the pending event
}

// entry returns the index of the k-th entry in firing order.
func (r *traceRun) entry(k int) int {
	if r.order != nil {
		return int(r.order[k])
	}
	return k
}

// frameLen returns entry i's frame length.
func (r *traceRun) frameLen(i int) int {
	if i < len(r.flens) && r.flens[i] > 0 {
		return r.flens[i]
	}
	return r.def
}

// file schedules the k-th entry in firing order.
func (r *traceRun) file(s *sim.Simulator, k int) {
	i := r.entry(k)
	s.AtArgSeq(r.times[i], r.seq0+uint64(i), emitTracePkt, sim.Arg{Obj: r})
}

// emitTracePkt fires one entry (Arg.Obj is the *traceRun), filing the
// successor first so the scheduler holds the earliest remaining one.
func emitTracePkt(sm *sim.Simulator, a sim.Arg) {
	r := a.Obj.(*traceRun)
	i := r.entry(r.next)
	r.next++
	if r.next < len(r.times) {
		r.file(sm, r.next)
	}
	tmpl := r.tmpls[r.frameLen(i)]
	p := r.pool.Get(tmpl.FrameLen())
	tmpl.Stamp(p, uint64(i))
	r.rx.Receive(sm, p)
}

// Install schedules the replay. Times need not be sorted. The replay
// reads Times and FrameLen as it goes, so the caller must leave both
// unmodified afterwards.
func (g Trace) Install(s *sim.Simulator, rx Receiver) uint64 {
	run := &traceRun{
		times: g.Times, flens: g.FrameLen, def: g.Flow.FrameLen,
		pool: poolFor(nil, rx), rx: rx,
		tmpls: make(map[int]*pkt.Template),
	}
	sorted := true
	for i := range g.Times {
		if i > 0 && g.Times[i] < g.Times[i-1] {
			sorted = false
		}
		flen := run.frameLen(i)
		if _, ok := run.tmpls[flen]; ok {
			continue
		}
		flow := g.Flow
		flow.FrameLen = flen
		tmpl, err := flow.Template()
		if err != nil {
			panic(fmt.Sprintf("traffic: %v", err))
		}
		run.tmpls[flen] = tmpl
	}
	if !sorted {
		run.order = make([]int32, len(g.Times))
		for i := range run.order {
			run.order[i] = int32(i)
		}
		sort.SliceStable(run.order, func(a, b int) bool {
			return g.Times[run.order[a]] < g.Times[run.order[b]]
		})
	}
	run.seq0 = s.ReserveSeqs(uint64(len(g.Times)))
	if len(g.Times) > 0 {
		run.file(s, 0)
	}
	return uint64(len(g.Times))
}

// Gbps converts a gigabit-per-second figure to bits per second.
func Gbps(g float64) int64 { return int64(g * 1e9) }
