package apps

import (
	"testing"

	idiocore "idio/internal/core"
	"idio/internal/cpu"
	"idio/internal/dram"
	"idio/internal/hier"
	"idio/internal/mem"
	"idio/internal/nic"
	"idio/internal/pcie"
	"idio/internal/pkt"
	"idio/internal/sim"
)

type ddioSink struct{ h *hier.Hierarchy }

func (s ddioSink) DMAWrite(now sim.Time, tlp pcie.WriteTLP) sim.Duration {
	return s.h.PCIeWrite(now, mem.LineAddr(tlp.LineAddr))
}

func (s ddioSink) DMARead(now sim.Time, line uint64) sim.Duration {
	return s.h.PCIeRead(now, mem.LineAddr(line))
}

type rig struct {
	s  *sim.Simulator
	h  *hier.Hierarchy
	n  *nic.NIC
	fd *nic.FlowDirector
	ly *mem.Layout
}

func newRig(t *testing.T) *rig {
	t.Helper()
	hcfg := hier.DefaultConfig(2)
	hcfg.MLCSize = 256 << 10
	hcfg.LLCSize = 768 << 10
	hcfg.DRAM = dram.DefaultConfig()
	h := hier.New(hcfg)
	ncfg := nic.DefaultConfig(2)
	ncfg.RingSize = 64
	ncfg.DescWBDelay = 100 * sim.Nanosecond
	ly := mem.NewLayout(1 << 30)
	cls := idiocore.NewClassifier(idiocore.DefaultClassifierConfig(2))
	fd := nic.NewFlowDirector(2)
	s := sim.New()
	n := nic.New(ncfg, ly, ddioSink{h}, cls, fd, sim.NewGroup(s))
	// Ring buffers and descriptors are Invalidatable, as System marks
	// them (Sec. V-D).
	for q := 0; q < ncfg.NumQueues; q++ {
		for _, slot := range n.Ring(q).Slots() {
			h.RegisterInvalidatable(slot.Buf)
			h.RegisterInvalidatable(slot.Desc)
		}
	}
	return &rig{s: s, h: h, n: n, fd: fd, ly: ly}
}

// attachPool gives ring 0 a pool of n buffers for the re-allocate
// mode, each registered Invalidatable as System.NewMbufPool does.
func (r *rig) attachPool(n int) *nic.MbufPool {
	pool := nic.NewMbufPool(n, r.ly)
	for _, b := range pool.Buffers() {
		r.h.RegisterInvalidatable(b)
	}
	r.n.Ring(0).AttachPool(pool)
	return pool
}

func (r *rig) startCore(t *testing.T, coreID int, app cpu.App, selfInval bool) *cpu.Core {
	t.Helper()
	c := cpu.NewCore(coreID, cpu.DefaultConfig(), selfInval, sim.NewClock(3e9), r.h, r.n, app)
	c.Start(r.s)
	return c
}

func (r *rig) inject(t *testing.T, at sim.Time, frameLen int, srcPort uint16) {
	t.Helper()
	f, err := pkt.Build(pkt.Spec{
		SrcIP: pkt.IPv4{10, 0, 0, 1}, DstIP: pkt.IPv4{10, 0, 0, 9},
		SrcPort: srcPort, DstPort: 80, FrameLen: frameLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	fields, err := pkt.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the flow to core 0, where the tests install their app.
	r.fd.AddEPRule(fields.Tuple(), 0)
	p := &pkt.Packet{Frame: f}
	r.s.At(at, func(sm *sim.Simulator) { r.n.Receive(sm, p) })
}

func TestTouchDropTouchesWholePayload(t *testing.T) {
	r := newRig(t)
	c := r.startCore(t, 0, TouchDrop{}, false)
	r.inject(t, 0, 1514, 1)
	r.s.RunUntil(sim.Time(sim.Millisecond))
	if c.Processed != 1 {
		t.Fatalf("processed %d", c.Processed)
	}
	st := r.h.Stats()
	// 24 payload lines demanded by the core (plus nothing else on this
	// quiet system).
	demand := st.DemandL1Hit + st.DemandMLCHit + st.DemandLLCHit + st.DemandDRAM
	if demand != 24 {
		t.Fatalf("demand accesses = %d, want 24", demand)
	}
}

func TestL2FwdReadsOnlyHeaderAndTransmits(t *testing.T) {
	r := newRig(t)
	c := r.startCore(t, 0, L2Fwd{}, false)
	r.inject(t, 0, 1024, 2)
	r.s.RunUntil(sim.Time(sim.Millisecond))
	if c.Processed != 1 {
		t.Fatalf("processed %d", c.Processed)
	}
	st := r.h.Stats()
	demand := st.DemandL1Hit + st.DemandMLCHit + st.DemandLLCHit + st.DemandDRAM
	if demand != 1 {
		t.Fatalf("demand accesses = %d, want 1 (header only)", demand)
	}
	// TX happened: 16 egress line reads for the 1024B frame.
	if r.n.Stats().DMAReads != 16 {
		t.Fatalf("DMA reads = %d, want 16", r.n.Stats().DMAReads)
	}
	if r.n.Stats().TxPackets != 1 {
		t.Fatal("tx not counted")
	}
	// The slot must be recycled after TX completion.
	if r.n.Ring(0).Occupancy() != 0 {
		t.Fatal("slot not freed after TX")
	}
}

func TestL2FwdZeroCopyEgressMovesHeaderBackToLLC(t *testing.T) {
	r := newRig(t)
	r.startCore(t, 0, L2Fwd{}, false)
	r.inject(t, 0, 1024, 3)
	r.s.RunUntil(sim.Time(sim.Millisecond))
	// The header was read into the MLC and then PCIe-read on TX: Fig. 3
	// (right) — it must be back in LLC, not MLC.
	if r.h.MLCOccupancy(0) != 0 {
		t.Fatalf("MLC still holds %d lines after TX", r.h.MLCOccupancy(0))
	}
	if r.h.Stats().MLCWriteback == 0 {
		t.Fatal("egress of the MLC-resident header must count as an MLC writeback")
	}
}

func TestL2FwdWithSelfInvalidationDropsBuffersAfterTX(t *testing.T) {
	r := newRig(t)
	r.startCore(t, 0, L2Fwd{}, true)
	r.inject(t, 0, 1024, 4)
	r.s.RunUntil(sim.Time(sim.Millisecond))
	// After TX + self-invalidation nothing of the buffer remains
	// on-chip.
	if r.h.LLCOccupancyIO() != 0 {
		t.Fatalf("LLC still holds %d IO lines", r.h.LLCOccupancyIO())
	}
	if r.h.Stats().SelfInval == 0 {
		t.Fatal("self invalidation must fire")
	}
}

func TestL2FwdDropPayloadNeverTouchesPayload(t *testing.T) {
	r := newRig(t)
	c := r.startCore(t, 0, L2FwdDropPayload{}, false)
	r.inject(t, 0, 1514, 5)
	r.s.RunUntil(sim.Time(sim.Millisecond))
	if c.Processed != 1 {
		t.Fatalf("processed %d", c.Processed)
	}
	st := r.h.Stats()
	demand := st.DemandL1Hit + st.DemandMLCHit + st.DemandLLCHit + st.DemandDRAM
	if demand != 1 {
		t.Fatalf("demand accesses = %d, want 1", demand)
	}
	if r.n.Stats().DMAReads != 0 {
		t.Fatal("drop-payload app must not transmit")
	}
}

func TestReallocNFDetachesAndDefers(t *testing.T) {
	r := newRig(t)
	pool := r.attachPool(128)
	app := &ReallocNF{DeferDelay: 50 * sim.Microsecond}
	c := r.startCore(t, 0, app, false)
	for i := 0; i < 8; i++ {
		r.inject(t, sim.Time(int64(i)*1000), 1514, uint16(i+1))
	}
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	if c.Processed != 8 {
		t.Fatalf("processed %d", c.Processed)
	}
	if app.Stashed != 8 || app.Deferred != 8 {
		t.Fatalf("stashed %d deferred %d", app.Stashed, app.Deferred)
	}
	// Every detached buffer was returned.
	if pool.Available() != pool.Capacity() {
		t.Fatalf("pool leaked: %d of %d free", pool.Available(), pool.Capacity())
	}
	// The ring itself drained (descriptors recycled immediately).
	if r.n.Ring(0).Occupancy() != 0 {
		t.Fatal("ring not drained")
	}
	// Deferred processing touched every payload line (header read at
	// RX + 24 lines deferred per packet, with the header line re-hit).
	st := r.h.Stats()
	demand := st.DemandL1Hit + st.DemandMLCHit + st.DemandLLCHit + st.DemandDRAM
	if demand != 8*25 {
		t.Fatalf("demand accesses %d, want 200", demand)
	}
}

// TestReallocNFSelfInvalidatesDetachedBuffers: under a
// self-invalidating policy the freed slot gives up only its two
// descriptor lines (its buffer is detached), and the deferred pass
// invalidates the 24 payload lines it consumed.
func TestReallocNFSelfInvalidatesDetachedBuffers(t *testing.T) {
	r := newRig(t)
	pool := r.attachPool(128)
	app := &ReallocNF{DeferDelay: 50 * sim.Microsecond}
	r.startCore(t, 0, app, true)
	for i := 0; i < 8; i++ {
		r.inject(t, sim.Time(int64(i)*1000), 1514, uint16(i+1))
	}
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	if app.Deferred != 8 || pool.Available() != pool.Capacity() {
		t.Fatalf("deferred %d, pool %d of %d", app.Deferred, pool.Available(), pool.Capacity())
	}
	if got := r.h.Stats().SelfInval; got != 8*(2+24) {
		t.Fatalf("self-invalidated %d lines, want %d (2 descriptor + 24 payload per packet)", got, 8*(2+24))
	}
	if r.h.MLCOccupancy(0) != 0 {
		t.Fatalf("MLC still holds %d lines of consumed buffers", r.h.MLCOccupancy(0))
	}
}

func TestReallocNFUsesFreshBuffers(t *testing.T) {
	// While buffers sit stashed, the NIC must write incoming packets
	// into different pool buffers (no overwrite of unprocessed data).
	r := newRig(t)
	pool := r.attachPool(16)
	app := &ReallocNF{DeferDelay: 4 * sim.Millisecond} // defer past injections
	r.startCore(t, 0, app, false)
	for i := 0; i < 4; i++ {
		r.inject(t, sim.Time(int64(i)*1000), 1514, uint16(i+1))
	}
	r.s.RunUntil(sim.Time(2 * sim.Millisecond))
	// 4 buffers are stashed, none deferred yet.
	if app.Stashed != 4 || app.Deferred != 0 {
		t.Fatalf("stashed %d deferred %d", app.Stashed, app.Deferred)
	}
	if pool.Available() != 16-4 {
		t.Fatalf("pool available %d, want 12", pool.Available())
	}
	r.s.RunUntil(sim.Time(20 * sim.Millisecond))
	if app.Deferred != 4 || pool.Available() != 16 {
		t.Fatalf("deferred %d, pool %d", app.Deferred, pool.Available())
	}
}

func TestReallocNFPoolExhaustionDrops(t *testing.T) {
	r := newRig(t)
	pool := r.attachPool(2)
	app := &ReallocNF{DeferDelay: 10 * sim.Millisecond}
	r.startCore(t, 0, app, false)
	for i := 0; i < 6; i++ {
		r.inject(t, sim.Time(int64(i)*1000), 1514, uint16(i+1))
	}
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	if app.Stashed != 2 {
		t.Fatalf("stashed %d, want 2 (pool bounded)", app.Stashed)
	}
	if r.n.Ring(0).PoolDrops != 4 {
		t.Fatalf("pool drops %d, want 4", r.n.Ring(0).PoolDrops)
	}
	if pool.AllocFailures != 4 {
		t.Fatalf("alloc failures %d", pool.AllocFailures)
	}
}

func TestMbufPoolDoubleFreePanics(t *testing.T) {
	ly := mem.NewLayout(0x8000000)
	p := nic.NewMbufPool(2, ly)
	b, ok := p.Alloc()
	if !ok {
		t.Fatal("alloc failed")
	}
	p.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	p.Free(b)
}

func TestDetachOnFixedRingPanics(t *testing.T) {
	r := newRig(t)
	slot := &r.n.Ring(0).Slots()[0]
	defer func() {
		if recover() == nil {
			t.Fatal("DetachBuf on fixed ring must panic")
		}
	}()
	slot.DetachBuf()
}

func TestNATLooksUpFlowTable(t *testing.T) {
	r := newRig(t)
	table := r.ly.Alloc(64<<10, 64)
	nat := &NAT{Table: table}
	c := r.startCore(t, 0, nat, false)
	// Two packets of the same flow, one of a different flow.
	r.inject(t, 0, 200, 100)
	r.inject(t, 1000, 200, 100)
	r.inject(t, 2000, 200, 200)
	r.s.RunUntil(sim.Time(sim.Millisecond))
	if c.Processed != 3 {
		t.Fatalf("processed %d", c.Processed)
	}
	if nat.Lookups != 3 {
		t.Fatalf("lookups %d", nat.Lookups)
	}
	// Per packet: 1 header read + 1 bucket read + 1 bucket write = 3
	// accesses; the repeated flow's second bucket access hits cache.
	st := r.h.Stats()
	demand := st.DemandL1Hit + st.DemandMLCHit + st.DemandLLCHit + st.DemandDRAM
	if demand != 9 {
		t.Fatalf("demand accesses %d, want 9", demand)
	}
	if st.DemandL1Hit == 0 {
		t.Fatal("bucket write after read must hit L1; repeated flow must hit cache")
	}
}

func TestNATBucketDistribution(t *testing.T) {
	r := newRig(t)
	table := r.ly.Alloc(4<<10, 64) // 64 buckets
	nat := &NAT{Table: table}
	seen := map[mem.LineAddr]bool{}
	for port := uint16(1); port <= 128; port++ {
		tp := pkt.FiveTuple{Src: pkt.IPv4{10, 0, 0, 1}, Dst: pkt.IPv4{10, 0, 0, 2}, SrcPort: port, DstPort: 80, Proto: pkt.ProtoUDP}
		b := nat.bucketFor(tp)
		if !table.ContainsLine(b) {
			t.Fatalf("bucket %v outside table", b)
		}
		seen[b] = true
	}
	// FNV over 128 flows must spread well beyond a handful of buckets.
	if len(seen) < 32 {
		t.Fatalf("only %d distinct buckets for 128 flows", len(seen))
	}
	_ = r
}

func TestAntagonistCPIAndAccessCount(t *testing.T) {
	r := newRig(t)
	buf := r.ly.Alloc(512<<10, 64)
	a := NewLLCAntagonist(1, buf, sim.NewClock(3e9), r.h, 7)
	a.Start(r.s)
	r.s.RunUntil(sim.Time(100 * sim.Microsecond))
	if a.Accesses == 0 {
		t.Fatal("antagonist made no accesses")
	}
	cpi := a.CPI()
	if cpi <= 4 {
		t.Fatalf("CPI %.1f implausibly low (must include memory latency)", cpi)
	}
	if cpi > 1000 {
		t.Fatalf("CPI %.1f implausibly high", cpi)
	}
}

func TestAntagonistSuffersFromLLCContention(t *testing.T) {
	// Baseline: antagonist alone.
	r1 := newRig(t)
	buf1 := r1.ly.Alloc(768<<10, 64)
	solo := NewLLCAntagonist(1, buf1, sim.NewClock(3e9), r1.h, 7)
	solo.Start(r1.s)
	r1.s.RunUntil(sim.Time(2 * sim.Millisecond))

	// Contended: TouchDrop streaming on core 0.
	r2 := newRig(t)
	buf2 := r2.ly.Alloc(768<<10, 64)
	cont := NewLLCAntagonist(1, buf2, sim.NewClock(3e9), r2.h, 7)
	cont.Start(r2.s)
	r2.startCore(t, 0, TouchDrop{}, false)
	for i := 0; i < 512; i++ {
		r2.inject(t, sim.Time(int64(i)*int64(1300*sim.Nanosecond)), 1514, uint16(i%400+10))
	}
	r2.s.RunUntil(sim.Time(2 * sim.Millisecond))

	if cont.CPI() <= solo.CPI() {
		t.Fatalf("co-run CPI %.2f must exceed solo CPI %.2f", cont.CPI(), solo.CPI())
	}
}

func TestAntagonistValidation(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("tiny buffer must panic")
		}
	}()
	NewLLCAntagonist(0, mem.Region{Base: 0, Size: 32}, sim.NewClock(3e9), r.h, 1)
}

func TestAntagonistCPIBetweenWindows(t *testing.T) {
	r := newRig(t)
	buf := r.ly.Alloc(256<<10, 64)
	a := NewLLCAntagonist(1, buf, sim.NewClock(3e9), r.h, 3)
	a.Start(r.s)
	r.s.RunUntil(sim.Time(500 * sim.Microsecond))
	whole := a.CPIBetween(0, sim.Time(500*sim.Microsecond))
	if whole <= 0 {
		t.Fatalf("windowed CPI %v", whole)
	}
	// A window inside the run gives a comparable figure.
	mid := a.CPIBetween(sim.Time(100*sim.Microsecond), sim.Time(400*sim.Microsecond))
	if mid <= 0 {
		t.Fatalf("mid-window CPI %v", mid)
	}
	// Degenerate windows return 0.
	if a.CPIBetween(100, 100) != 0 {
		t.Fatal("empty window must be 0")
	}
	if a.CPIBetween(sim.Time(400*sim.Microsecond), sim.Time(100*sim.Microsecond)) != 0 {
		t.Fatal("inverted window must be 0")
	}
	// A window before any iteration completed returns 0.
	if got := a.CPIBetween(0, 1); got != 0 {
		t.Fatalf("pre-history window = %v", got)
	}
}

func TestAppNames(t *testing.T) {
	if (TouchDrop{}).Name() != "TouchDrop" || (L2Fwd{}).Name() != "L2Fwd" ||
		(L2FwdDropPayload{}).Name() != "L2FwdDropPayload" {
		t.Fatal("app names wrong")
	}
}
