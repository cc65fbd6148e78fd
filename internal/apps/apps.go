// Package apps implements the workloads of Table II plus the buffer
// recycling modes of Sec. II-B:
//
//   - TouchDrop        — receive, touch every payload byte, drop
//     (deep-inspection stand-in; run-to-completion)
//   - L2Fwd            — receive, read the Ethernet header, forward the
//     packet zero-copy out of the same buffer (shallow NF)
//   - L2FwdDropPayload — the Sec. VII variant that drops the payload
//     after header processing (application class 1)
//   - LLCAntagonist    — Table II's cache-thrashing co-runner, with CPI
//     accounting
package apps

import (
	"math/rand"

	"idio/internal/cpu"
	"idio/internal/hier"
	"idio/internal/mem"
	"idio/internal/nic"
	"idio/internal/pkt"
	"idio/internal/sim"
)

// TouchDrop receives packets, touches their entire data, and drops
// them (Table II). Buffers are released at end of batch.
type TouchDrop struct{}

// Name implements cpu.App.
func (TouchDrop) Name() string { return "TouchDrop" }

// OnPacket reads every payload line through the hierarchy.
func (TouchDrop) OnPacket(env *cpu.Env, slot *nic.Slot) (sim.Duration, bool) {
	lat := env.ReadRegion(slot.PayloadRegion())
	return lat, false
}

// L2Fwd receives packets, reads the Ethernet header, and forwards the
// packet zero-copy: the same DMA buffer is handed to the NIC for TX,
// and the slot is released only after the TX DMA reads complete
// (run-to-completion with deferred release, Sec. VII).
type L2Fwd struct{}

// Name implements cpu.App.
func (L2Fwd) Name() string { return "L2Fwd" }

// OnPacket reads only the first line (all protocol headers fit in
// 64 bytes, Sec. V-A) and schedules the TX.
func (L2Fwd) OnPacket(env *cpu.Env, slot *nic.Slot) (sim.Duration, bool) {
	lat := env.Read(slot.Buf.Base.Line())
	env.TransmitAndFree(slot, slot.PayloadRegion())
	return lat, true
}

// L2FwdDropPayload processes the header and drops the payload without
// ever touching it — the class-1 application of Sec. VII used to
// evaluate selective direct DRAM access.
type L2FwdDropPayload struct{}

// Name implements cpu.App.
func (L2FwdDropPayload) Name() string { return "L2FwdDropPayload" }

// OnPacket reads only the header line.
func (L2FwdDropPayload) OnPacket(env *cpu.Env, slot *nic.Slot) (sim.Duration, bool) {
	lat := env.Read(slot.Buf.Base.Line())
	return lat, false
}

// ReallocNF implements the M2 "re-allocate" recycling mode of
// Sec. II-B, used inside the Linux kernel to avoid copies for large
// packets: on reception it reads only the header, detaches the filled
// buffer from the descriptor (stashing it for later), and immediately
// replenishes the ring — the NIC keeps writing into fresh pool
// buffers. A deferred processing loop drains the stash at its own
// pace, touching the payloads and returning buffers to the pool.
//
// The cache consequence the paper cares about: consumed buffers are
// NOT promptly overwritten by the NIC (no invalidation-on-reuse), so
// their dead cachelines linger until the deferred pass touches and
// frees them — a longer effective use distance than run-to-completion.
type ReallocNF struct {
	// DeferDelay is how long a stashed buffer waits before the
	// deferred pass processes it.
	DeferDelay sim.Duration

	Stashed  uint64
	Deferred uint64 // deferred-pass completions
	env      *cpu.Env
	pending  []stashEntry
	draining bool
}

type stashEntry struct {
	buf  mem.Region
	pool *nic.MbufPool
}

// Name implements cpu.App.
func (a *ReallocNF) Name() string { return "ReallocNF" }

// OnPacket reads the header, detaches and stashes the buffer, and
// releases the descriptor immediately.
func (a *ReallocNF) OnPacket(env *cpu.Env, slot *nic.Slot) (sim.Duration, bool) {
	a.env = env
	lat := env.Read(slot.Buf.Base.Line())
	payloadBytes := slot.PayloadBytes
	buf := slot.DetachBuf()
	a.pending = append(a.pending, stashEntry{
		buf:  mem.Region{Base: buf.Base, Size: uint64(payloadBytes)},
		pool: slot.Ring().Pool(),
	})
	a.Stashed++
	if !a.draining {
		a.draining = true
		delay := a.DeferDelay
		if delay <= 0 {
			delay = 10 * sim.Microsecond
		}
		env.Sim.After(delay, a.drain)
	}
	return lat, false
}

// drain processes one stashed buffer per event: touch the payload,
// self-invalidate it when the core's policy says so, and return the
// 2 KB buffer to the pool.
func (a *ReallocNF) drain(s *sim.Simulator) {
	if len(a.pending) == 0 {
		a.draining = false
		return
	}
	e := a.pending[0]
	a.pending = a.pending[1:]
	elapsed := a.env.ReadRegion(e.buf)
	elapsed += a.env.SelfInvalidate(e.buf)
	e.pool.Free(mem.Region{Base: e.buf.Base, Size: mem.MbufBytes})
	a.Deferred++
	s.After(elapsed, a.drain)
}

// NAT models a stateful shallow NF (Sec. II-B names NATs and load
// balancers as header-only applications): it parses the header, looks
// up the flow in a hash table kept in application memory, updates the
// translation entry, and drops the packet. Unlike TouchDrop/L2Fwd its
// cache footprint mixes DMA buffers with application state, so the
// flow table competes with inbound data for MLC and LLC space.
type NAT struct {
	// Table is the flow-table region; each bucket is one cacheline.
	Table mem.Region
	// Lookups/Hits count table accesses (a new flow writes its entry,
	// a known flow updates it — both touch exactly one bucket line).
	Lookups uint64
}

// Name implements cpu.App.
func (n *NAT) Name() string { return "NAT" }

// OnPacket reads the header line, then reads and updates the flow's
// table bucket.
func (n *NAT) OnPacket(env *cpu.Env, slot *nic.Slot) (sim.Duration, bool) {
	lat := env.Read(slot.Buf.Base.Line())
	fields, err := pkt.Parse(slot.Pkt.Frame)
	if err != nil {
		return lat, false
	}
	n.Lookups++
	bucket := n.bucketFor(fields.Tuple())
	lat += env.Read(bucket)
	lat += env.Write(bucket)
	return lat, false
}

// bucketFor hashes a 5-tuple onto a table cacheline (FNV-1a).
func (n *NAT) bucketFor(t pkt.FiveTuple) mem.LineAddr {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	for _, b := range t.Src {
		mix(b)
	}
	for _, b := range t.Dst {
		mix(b)
	}
	mix(byte(t.SrcPort >> 8))
	mix(byte(t.SrcPort))
	mix(byte(t.DstPort >> 8))
	mix(byte(t.DstPort))
	mix(t.Proto)
	nLines := uint64(n.Table.Size / mem.LineBytes)
	return n.Table.Base.Line() + mem.LineAddr(h%nLines)
}

// LLCAntagonist allocates a buffer and randomly accesses its elements
// (Table II), generating LLC pressure. It runs as a free-standing
// event loop rather than a packet app and reports CPI over its
// accesses, the metric Fig. 10/12 use for isolation.
type LLCAntagonist struct {
	CoreID int
	Buf    mem.Region
	// AccessesPerIter is how many random line accesses each loop
	// iteration performs before yielding an event.
	AccessesPerIter int
	// ComputeCycles is the fixed instruction cost per access
	// (address generation etc.).
	ComputeCycles int64

	rng   *rand.Rand
	clock sim.Clock
	h     *hier.Hierarchy

	// WarmupAccesses are excluded from the CPI measurement so that
	// the cold-start transient does not skew comparisons between runs
	// of different lengths.
	WarmupAccesses uint64

	Accesses   uint64 // measured accesses (post warm-up)
	TotalTime  sim.Duration
	rawAccess  uint64
	rawTime    sim.Duration
	warmupDone bool

	// History records cumulative progress after each iteration so
	// callers can compute CPI over an arbitrary window (e.g. only
	// while a burst was being processed).
	History []CPISample
}

// CPISample is a cumulative progress point of the antagonist.
type CPISample struct {
	At       sim.Time
	Accesses uint64
	Time     sim.Duration
}

// NewLLCAntagonist builds the antagonist over the given buffer.
func NewLLCAntagonist(coreID int, buf mem.Region, clock sim.Clock, h *hier.Hierarchy, seed int64) *LLCAntagonist {
	if buf.Size < mem.LineBytes {
		panic("apps: antagonist buffer too small")
	}
	return &LLCAntagonist{
		CoreID:          coreID,
		Buf:             buf,
		AccessesPerIter: 64,
		ComputeCycles:   4,
		WarmupAccesses:  4096,
		rng:             rand.New(rand.NewSource(seed)),
		clock:           clock,
		h:               h,
	}
}

// Warmup installs the buffer into the cache hierarchy without charging
// time or polluting statistics (the paper warms caches by initialising
// the buffer before collecting stats).
func (a *LLCAntagonist) Warmup(now sim.Time) {
	a.Buf.Lines(func(l mem.LineAddr) { a.h.WarmWrite(a.CoreID, l) })
	a.warmupDone = true
}

// Start schedules the access loop.
func (a *LLCAntagonist) Start(s *sim.Simulator) {
	if !a.warmupDone {
		a.Warmup(s.Now())
	}
	s.At(s.Now(), a.iter)
}

func (a *LLCAntagonist) iter(s *sim.Simulator) {
	var elapsed sim.Duration
	nLines := int64(a.Buf.Size / mem.LineBytes)
	for i := 0; i < a.AccessesPerIter; i++ {
		l := a.Buf.Base.Line() + mem.LineAddr(a.rng.Int63n(nLines))
		elapsed += a.h.CoreRead(s.Now(), a.CoreID, l)
		elapsed += a.clock.Cycles(a.ComputeCycles)
	}
	a.rawAccess += uint64(a.AccessesPerIter)
	a.rawTime += elapsed
	if a.rawAccess > a.WarmupAccesses {
		a.Accesses += uint64(a.AccessesPerIter)
		a.TotalTime += elapsed
	}
	a.History = append(a.History, CPISample{
		At:       s.Now().Add(elapsed),
		Accesses: a.rawAccess,
		Time:     a.rawTime,
	})
	s.After(elapsed, a.iter)
}

// CPI returns average cycles per access over the run (warm-up
// excluded).
func (a *LLCAntagonist) CPI() float64 {
	if a.Accesses == 0 {
		return 0
	}
	return a.clock.ToCycles(a.TotalTime) / float64(a.Accesses)
}

// CPIBetween returns the average cycles per access over [t0, t1],
// using the nearest iteration boundaries. It returns 0 when the
// window covers no completed iterations.
func (a *LLCAntagonist) CPIBetween(t0, t1 sim.Time) float64 {
	if t1 <= t0 || len(a.History) == 0 {
		return 0
	}
	// Last sample at or before t0 (zero progress if none), and last
	// sample at or before t1.
	var lo, hi CPISample
	hiSet := false
	for _, s := range a.History {
		if s.At <= t0 {
			lo = s
		}
		if s.At <= t1 {
			hi = s
			hiSet = true
		} else {
			break
		}
	}
	if !hiSet || hi.Accesses <= lo.Accesses {
		return 0
	}
	return a.clock.ToCycles(hi.Time-lo.Time) / float64(hi.Accesses-lo.Accesses)
}
