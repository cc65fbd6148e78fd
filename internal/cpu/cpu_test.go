package cpu

import (
	"testing"

	idiocore "idio/internal/core"
	"idio/internal/dram"
	"idio/internal/hier"
	"idio/internal/mem"
	"idio/internal/nic"
	"idio/internal/obs"
	"idio/internal/pcie"
	"idio/internal/pkt"
	"idio/internal/sim"
)

// ddioSink is a plain DDIO root complex: every DMA write goes to the
// LLC, every DMA read through the egress path.
type ddioSink struct{ h *hier.Hierarchy }

func (s ddioSink) DMAWrite(now sim.Time, tlp pcie.WriteTLP) sim.Duration {
	return s.h.PCIeWrite(now, mem.LineAddr(tlp.LineAddr))
}

func (s ddioSink) DMARead(now sim.Time, line uint64) sim.Duration {
	return s.h.PCIeRead(now, mem.LineAddr(line))
}

// touchAll is a minimal deep-touch app for tests.
type touchAll struct{}

func (touchAll) Name() string { return "touchAll" }
func (touchAll) OnPacket(env *Env, slot *nic.Slot) (sim.Duration, bool) {
	return env.ReadRegion(slot.PayloadRegion()), false
}

type rig struct {
	s    *sim.Simulator
	h    *hier.Hierarchy
	n    *nic.NIC
	core *Core
}

func newRig(t *testing.T, coreCfg Config, ringSize int) *rig {
	t.Helper()
	return newSelfInvalRig(t, coreCfg, ringSize, false)
}

// newSelfInvalRig is newRig with the core's self-invalidation set.
func newSelfInvalRig(t *testing.T, coreCfg Config, ringSize int, selfInval bool) *rig {
	t.Helper()
	hcfg := hier.Config{
		Clock:    sim.NewClock(3_000_000_000),
		NumCores: 1,
		L1Size:   4 << 10, L1Assoc: 2, L1Lat: 2,
		MLCSize: 64 << 10, MLCAssoc: 8, MLCLat: 12,
		LLCSize: 128 << 10, LLCAssoc: 8, LLCLat: 24,
		DDIOWays:          2,
		DirEntriesPerCore: 4096, DirAssoc: 16,
		DRAM: dram.Config{AccessLatency: 80 * sim.Nanosecond, BytesPerSecond: 25_600_000_000},
	}
	h := hier.New(hcfg)
	ncfg := nic.DefaultConfig(1)
	ncfg.RingSize = ringSize
	ncfg.DescWBDelay = 100 * sim.Nanosecond
	cls := idiocore.NewClassifier(idiocore.DefaultClassifierConfig(1))
	s := sim.New()
	n := nic.New(ncfg, mem.NewLayout(0x1000000), ddioSink{h}, cls, nic.NewFlowDirector(1), sim.NewGroup(s))
	// Ring buffers and descriptors are Invalidatable, as System marks
	// them (Sec. V-D).
	for _, slot := range n.Ring(0).Slots() {
		h.RegisterInvalidatable(slot.Buf)
		h.RegisterInvalidatable(slot.Desc)
	}
	c := NewCore(0, coreCfg, selfInval, hcfg.Clock, h, n, touchAll{})
	return &rig{s: s, h: h, n: n, core: c}
}

func (r *rig) inject(t *testing.T, at sim.Time, frameLen int, srcPort uint16) {
	t.Helper()
	f, err := pkt.Build(pkt.Spec{
		SrcIP: pkt.IPv4{1, 2, 3, 4}, DstIP: pkt.IPv4{5, 6, 7, 8},
		SrcPort: srcPort, DstPort: 9, FrameLen: frameLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &pkt.Packet{Frame: f}
	r.s.At(at, func(sm *sim.Simulator) { r.n.Receive(sm, p) })
}

func TestPMDProcessesAllPackets(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	for i := 0; i < 10; i++ {
		r.inject(t, sim.Time(i*1000), 1514, uint16(i+1))
	}
	r.core.Start(r.s)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	if r.core.Processed != 10 {
		t.Fatalf("processed %d, want 10", r.core.Processed)
	}
	if r.core.Latencies.Count() != 10 {
		t.Fatalf("latency samples %d", r.core.Latencies.Count())
	}
	// All slots freed: ring empty again.
	if r.n.Ring(0).Occupancy() != 0 {
		t.Fatalf("ring occupancy %d after processing", r.n.Ring(0).Occupancy())
	}
}

func TestLatencyIncludesQueueing(t *testing.T) {
	r := newRig(t, DefaultConfig(), 128)
	// All packets arrive together; later ones wait behind earlier ones.
	for i := 0; i < 32; i++ {
		r.inject(t, 0, 1514, uint16(i+1))
	}
	r.core.Start(r.s)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	if r.core.Processed != 32 {
		t.Fatalf("processed %d", r.core.Processed)
	}
	p50, p99 := r.core.Latencies.P50(), r.core.Latencies.P99()
	if p99 <= p50 {
		t.Fatalf("queueing must stretch the tail: p50=%v p99=%v", p50, p99)
	}
}

func TestBatchRespectsBatchSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 4
	r := newRig(t, cfg, 64)
	for i := 0; i < 8; i++ {
		r.inject(t, 0, 200, uint16(i+1))
	}
	r.core.Start(r.s)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	if r.core.Processed != 8 {
		t.Fatalf("processed %d", r.core.Processed)
	}
}

func TestSelfInvalidateEliminatesMLCWritebacks(t *testing.T) {
	run := func(selfInval bool) (mlcWB, selfInv uint64) {
		// Ring larger than the 64KB MLC (in packets): 1514B packets
		// x 64 slots = ~96KB of buffers.
		r := newSelfInvalRig(t, DefaultConfig(), 64, selfInval)
		for i := 0; i < 256; i++ {
			r.inject(t, sim.Time(int64(i)*int64(200*sim.Nanosecond)), 1514, uint16(i%500+1))
		}
		r.core.Start(r.s)
		r.s.RunUntil(sim.Time(10 * sim.Millisecond))
		if r.core.Processed == 0 {
			t.Fatal("nothing processed")
		}
		st := r.h.Stats()
		return st.MLCWriteback, st.SelfInval
	}
	wbBase, invBase := run(false)
	wbIDIO, invIDIO := run(true)
	if invBase != 0 {
		t.Fatalf("baseline must not self-invalidate: %d", invBase)
	}
	if invIDIO == 0 {
		t.Fatal("self-invalidation must fire")
	}
	if wbBase == 0 {
		t.Fatal("baseline must produce MLC writebacks (ring exceeds MLC)")
	}
	if wbIDIO*5 > wbBase {
		t.Fatalf("self-invalidation must slash MLC writebacks: base=%d idio=%d", wbBase, wbIDIO)
	}
}

func TestRunToCompletionRepollsImmediately(t *testing.T) {
	// With a continuous backlog the core must not insert poll-interval
	// gaps: total processing time ~ N * service time.
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * sim.Microsecond // obviously wrong if used between batches
	r := newRig(t, cfg, 128)
	for i := 0; i < 96; i++ {
		r.inject(t, 0, 1514, uint16(i+1))
	}
	r.core.Start(r.s)
	r.s.RunUntil(sim.Time(100 * sim.Millisecond))
	if r.core.Processed != 96 {
		t.Fatalf("processed %d", r.core.Processed)
	}
	// 96 packets at ~3us each (most lines leak to DRAM in this tiny
	// LLC) = ~320us; three inter-batch sleeps would add another 300us.
	span := r.core.LastDoneAt.Sub(r.core.FirstPacketAt)
	if span > 450*sim.Microsecond {
		t.Fatalf("backlogged run took %v; batches must chain without polling gaps", span)
	}
}

func TestMSHROverlapShortensService(t *testing.T) {
	// Identical cold region read under MSHRs 1, 4, 24: more overlap
	// must monotonically shorten (or equal) the service time, bounded
	// below by the longest single access.
	times := map[int]sim.Duration{}
	for _, mshrs := range []int{1, 4, 24} {
		cfg := DefaultConfig()
		cfg.MSHRs = mshrs
		r := newRig(t, cfg, 64)
		r.core.env.Sim = r.s
		region := r.n.Ring(0).Slots()[0].Buf
		times[mshrs] = r.core.env.ReadRegion(mem.Region{Base: region.Base, Size: 1514})
	}
	if !(times[24] <= times[4] && times[4] <= times[1]) {
		t.Fatalf("overlap must not slow reads: %v", times)
	}
	if times[4] >= times[1] {
		t.Fatalf("4 MSHRs on cold DRAM reads must overlap: serial=%v mlp4=%v", times[1], times[4])
	}
	// 24 lines with >=24 MSHRs: all misses overlap; the service time
	// approaches a single DRAM access plus bus serialisation, far
	// below the serial sum.
	if times[24]*4 > times[1] {
		t.Fatalf("full overlap too weak: serial=%v mlp24=%v", times[1], times[24])
	}
}

func TestMSHRDefaultSerialEquivalence(t *testing.T) {
	// MSHRs=1 must be exactly the serial sum (the calibrated model).
	cfg := DefaultConfig()
	r := newRig(t, cfg, 64)
	r.core.env.Sim = r.s
	buf := r.n.Ring(0).Slots()[0].Buf
	var serial sim.Duration
	region := mem.Region{Base: buf.Base, Size: 1514}
	region.Lines(func(l mem.LineAddr) { serial += r.h.CoreRead(0, 0, l) })
	// Fresh rig for the same cold state.
	r2 := newRig(t, cfg, 64)
	r2.core.env.Sim = r2.s
	buf2 := r2.n.Ring(0).Slots()[0].Buf
	got := r2.core.env.ReadRegion(mem.Region{Base: buf2.Base, Size: 1514})
	if got != serial {
		t.Fatalf("MSHRs=1 ReadRegion %v != serial sum %v", got, serial)
	}
}

func TestInterruptDriverProcessesAndSleeps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Driver = DriverInterrupt
	r := newRig(t, cfg, 64)
	for i := 0; i < 8; i++ {
		r.inject(t, sim.Time(int64(i)*int64(50*sim.Microsecond)), 1514, uint16(i+1))
	}
	r.core.Start(r.s)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	if r.core.Processed != 8 {
		t.Fatalf("processed %d, want 8", r.core.Processed)
	}
	// Well-spaced packets: one interrupt each (the ring drains between
	// arrivals, so the driver re-arms every time).
	if r.core.Interrupts != 8 {
		t.Fatalf("interrupts = %d, want 8", r.core.Interrupts)
	}
	// No poll events should be burning cycles while idle: with all
	// packets handled, the simulator's queue must drain completely
	// (the PMD, in contrast, re-schedules forever).
	if r.s.Pending() != 0 {
		t.Fatalf("%d events still pending; interrupt driver must sleep", r.s.Pending())
	}
}

func TestInterruptDriverCoalescesBackToBackPackets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Driver = DriverInterrupt
	r := newRig(t, cfg, 64)
	// A tight burst: the first interrupt wakes the core; the rest are
	// consumed under the same wake-up (NAPI coalescing).
	for i := 0; i < 16; i++ {
		r.inject(t, sim.Time(int64(i)*100), 1514, uint16(i+1))
	}
	r.core.Start(r.s)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	if r.core.Processed != 16 {
		t.Fatalf("processed %d", r.core.Processed)
	}
	if r.core.Interrupts >= 16 {
		t.Fatalf("interrupts = %d; burst must coalesce", r.core.Interrupts)
	}
}

func TestInterruptAddsWakeupLatencyVsPolling(t *testing.T) {
	run := func(driver Driver) sim.Duration {
		cfg := DefaultConfig()
		cfg.Driver = driver
		r := newRig(t, cfg, 64)
		r.inject(t, 0, 1514, 1)
		r.core.Start(r.s)
		r.s.RunUntil(sim.Time(5 * sim.Millisecond))
		if r.core.Processed != 1 {
			t.Fatalf("processed %d", r.core.Processed)
		}
		return r.core.Latencies.P50()
	}
	pmd := run(DriverPolling)
	irq := run(DriverInterrupt)
	if irq <= pmd {
		t.Fatalf("interrupt latency %v must exceed polling %v", irq, pmd)
	}
	// The gap is roughly the IRQ wake-up cost.
	if gap := irq - pmd; gap > 5*sim.Microsecond {
		t.Fatalf("latency gap %v implausibly large", gap)
	}
}

// doneLog keeps the EvDone events a traced run emits.
type doneLog struct{ done []obs.Event }

func (l *doneLog) Emit(e obs.Event) {
	if e.Kind == obs.EvDone {
		l.done = append(l.done, e)
	}
}
func (l *doneLog) Close() error { return nil }

func TestTraceRecordsStages(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	o := obs.New(obs.Config{TraceSampleN: 1})
	var log doneLog
	o.SetSink(&log)
	r.core.Env().Obs = o
	for i := 0; i < 4; i++ {
		r.inject(t, sim.Time(int64(i)*1000), 1514, uint16(i+1))
	}
	r.core.Start(r.s)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	if len(log.done) != 4 {
		t.Fatalf("traced %d EvDone events, want 4", len(log.done))
	}
	for i, e := range log.done {
		if !(e.Arrival <= e.Ready && e.Ready <= e.Start && e.Start < e.At) {
			t.Fatalf("event %d stages out of order: %+v", i, e)
		}
		notify, queue, service := e.Ready.Sub(e.Arrival), e.Start.Sub(e.Ready), e.At.Sub(e.Start)
		if e.At.Sub(e.Arrival) != notify+queue+service {
			t.Fatalf("event %d breakdown does not sum: %+v", i, e)
		}
		if service <= 0 {
			t.Fatalf("event %d zero service time", i)
		}
		// Descriptor coalescing contributes the configured 100ns floor.
		if notify < 100*sim.Nanosecond {
			t.Fatalf("event %d notify delay %v below coalescing floor", i, notify)
		}
	}
}

func TestCoreValidation(t *testing.T) {
	for _, cfg := range []Config{
		{BatchSize: 0, PollInterval: 1},
		{BatchSize: 1, PollInterval: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", cfg)
				}
			}()
			NewCore(0, cfg, false, sim.NewClock(3e9), nil, nil, touchAll{})
		}()
	}
}

func TestDoubleStartPanics(t *testing.T) {
	r := newRig(t, DefaultConfig(), 16)
	r.core.Start(r.s)
	defer func() {
		if recover() == nil {
			t.Fatal("double start must panic")
		}
	}()
	r.core.Start(r.s)
}
