package hier

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"idio/internal/cache"
	"idio/internal/dram"
	"idio/internal/mem"
	"idio/internal/sim"
)

// small returns a deliberately tiny hierarchy so capacity effects are
// easy to trigger: 2 cores, 1KB L1 (2-way), 4KB MLC (4-way), 16KB LLC
// (8-way, 2 DDIO ways), generous directory.
func small(t *testing.T) *Hierarchy {
	t.Helper()
	cfg := Config{
		Clock:    sim.NewClock(3_000_000_000),
		NumCores: 2,
		L1Size:   1 << 10, L1Assoc: 2, L1Lat: 2,
		MLCSize: 4 << 10, MLCAssoc: 4, MLCLat: 12,
		LLCSize: 16 << 10, LLCAssoc: 8, LLCLat: 24,
		DDIOWays:          2,
		DirEntriesPerCore: 256,
		DirAssoc:          8,
		DRAM:              dram.Config{AccessLatency: 80 * sim.Nanosecond, BytesPerSecond: 25_600_000_000},
	}
	return New(cfg)
}

func TestDemandMissGoesToDRAMAndFillsMLC(t *testing.T) {
	h := small(t)
	lat := h.CoreRead(0, 0, 100)
	if lat <= h.llcLat {
		t.Fatalf("cold miss latency %v should include DRAM", lat)
	}
	st := h.Stats()
	if st.DemandDRAM != 1 {
		t.Fatalf("stats %+v", st)
	}
	// DRAM fill bypasses LLC (non-inclusive).
	if h.LLCOccupancy() != 0 {
		t.Fatal("DRAM fill must not allocate in LLC")
	}
	if h.MLCOccupancy(0) != 1 {
		t.Fatal("DRAM fill must land in MLC")
	}
	// Second access: L1 hit.
	lat = h.CoreRead(0, 0, 100)
	if lat != h.l1Lat {
		t.Fatalf("L1 hit latency %v, want %v", lat, h.l1Lat)
	}
	if h.Stats().DemandL1Hit != 1 {
		t.Fatalf("stats %+v", h.Stats())
	}
}

func TestPCIeWriteAllocatesDDIOWays(t *testing.T) {
	h := small(t)
	lat := h.PCIeWrite(0, 7)
	if lat != h.llcLat {
		t.Fatalf("ddio write latency %v", lat)
	}
	st := h.Stats()
	if st.DDIOAlloc != 1 || st.DDIOUpdate != 0 {
		t.Fatalf("stats %+v", st)
	}
	if h.LLCOccupancyIO() != 1 {
		t.Fatal("line must be IO-classified in LLC")
	}
	// Same line again: in-place update.
	h.PCIeWrite(0, 7)
	if h.Stats().DDIOUpdate != 1 {
		t.Fatalf("stats %+v", h.Stats())
	}
}

func TestDDIOWayConfinementCausesDMALeak(t *testing.T) {
	h := small(t)
	// LLC: 16KB / 64B = 256 lines / 8 ways = 32 sets; DDIO capacity is
	// 2 ways x 32 sets = 64 lines. Write 256 distinct lines: residency
	// stays within 64 IO lines and the rest leak to DRAM (DMA leak).
	for i := mem.LineAddr(0); i < 256; i++ {
		h.PCIeWrite(0, i)
	}
	if got := h.LLCOccupancyIO(); got > 64 {
		t.Fatalf("IO lines %d exceed DDIO capacity 64", got)
	}
	st := h.Stats()
	if st.LLCWriteback != 256-64 {
		t.Fatalf("LLC writebacks %d, want 192", st.LLCWriteback)
	}
	if st.LLCWBIO != st.LLCWriteback {
		t.Fatalf("all leaks should be IO-classified: %+v", st)
	}
	if h.DRAM().Writes() != 192 {
		t.Fatalf("DRAM writes %d, want 192", h.DRAM().Writes())
	}
}

func TestLLCHitMovesLineToMLC(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 9) // lands in LLC DDIO ways, dirty+IO
	lat := h.CoreRead(0, 0, 9)
	if lat != h.llcLat {
		t.Fatalf("LLC hit latency %v, want %v", lat, h.llcLat)
	}
	if h.LLCOccupancy() != 0 {
		t.Fatal("LLC copy must be deallocated on core demand (move semantics)")
	}
	if h.MLCOccupancy(0) != 1 {
		t.Fatal("line must now be in MLC")
	}
	if h.Stats().DemandLLCHit != 1 {
		t.Fatalf("stats %+v", h.Stats())
	}
}

func TestMLCEvictionWritesBackDirtyToLLCAndBloats(t *testing.T) {
	h := small(t)
	// Bring 64+16 dirty IO lines through MLC of core 0 (MLC = 64 lines).
	n := mem.LineAddr(64 + 16)
	for i := mem.LineAddr(0); i < n; i++ {
		h.PCIeWrite(0, i)
		h.CoreRead(0, 0, i) // moves to MLC, dirty
	}
	st := h.Stats()
	if st.MLCWriteback != 16 {
		t.Fatalf("MLC writebacks %d, want 16", st.MLCWriteback)
	}
	if h.MLCWritebacks(0) != 16 || h.MLCWritebacks(1) != 0 {
		t.Fatalf("per-core WB %d/%d", h.MLCWritebacks(0), h.MLCWritebacks(1))
	}
	// Bloating: the evicted lines allocate in the LLC as non-IO data.
	found := false
	// (IO occupancy counts only PCIe-classified lines; victims lose it.)
	if h.LLCOccupancyIO() != 0 && h.LLCOccupancy() > 0 {
		t.Fatalf("victims must lose IO classification: io=%d", h.LLCOccupancyIO())
	}
	if h.LLCOccupancy() >= 16 {
		found = true
	}
	if !found {
		t.Fatalf("LLC occupancy %d; MLC victims must allocate into LLC", h.LLCOccupancy())
	}
}

func TestAppWayMaskLimitsBloating(t *testing.T) {
	cfg := Config{
		Clock:    sim.NewClock(3_000_000_000),
		NumCores: 1,
		L1Size:   1 << 10, L1Assoc: 2, L1Lat: 2,
		MLCSize: 4 << 10, MLCAssoc: 4, MLCLat: 12,
		LLCSize: 16 << 10, LLCAssoc: 8, LLCLat: 24,
		DDIOWays:          2,
		AppWayMask:        cache.WayMask(1 << 2), // single non-DDIO way
		DirEntriesPerCore: 256, DirAssoc: 8,
		DRAM: dram.Config{AccessLatency: 80 * sim.Nanosecond, BytesPerSecond: 25_600_000_000},
	}
	h := New(cfg)
	// Stream many dirty lines through the MLC; victims may only occupy
	// 1 way x 4 sets = 4 LLC lines, so the rest go to DRAM.
	for i := mem.LineAddr(0); i < 200; i++ {
		h.PCIeWrite(0, i)
		h.CoreRead(0, 0, i)
	}
	if h.DRAM().Writes() == 0 {
		t.Fatal("way-partitioned app must leak writebacks to DRAM")
	}
	// Compare against unpartitioned: strictly fewer DRAM writes.
	h2 := small(t)
	for i := mem.LineAddr(0); i < 200; i++ {
		h2.PCIeWrite(0, i)
		h2.CoreRead(0, 0, i)
	}
	if h2.DRAM().Writes() >= h.DRAM().Writes() {
		t.Fatalf("bloating should absorb writebacks: full=%d 1way=%d",
			h2.DRAM().Writes(), h.DRAM().Writes())
	}
}

func TestPCIeWriteInvalidatesMLCCopy(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 5)
	h.CoreRead(0, 0, 5) // line now in MLC core 0
	h.PCIeWrite(0, 5)   // NIC reuses the buffer
	st := h.Stats()
	if st.MLCInval != 1 {
		t.Fatalf("MLC invalidations %d, want 1", st.MLCInval)
	}
	if h.MLCOccupancy(0) != 0 {
		t.Fatal("MLC copy must be gone")
	}
	// No writeback happened for the invalidated line.
	if st.MLCWriteback != 0 {
		t.Fatalf("invalidation must not write back: %+v", st)
	}
	if h.LLCOccupancyIO() != 1 {
		t.Fatal("fresh copy must be in DDIO ways")
	}
}

func TestPCIeReadMovesMLCLineToLLC(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 3)
	h.CoreRead(0, 0, 3) // in MLC, dirty
	lat := h.PCIeRead(0, 3)
	if lat != h.llcLat+h.mlcLat {
		t.Fatalf("egress from MLC latency %v", lat)
	}
	if h.MLCOccupancy(0) != 0 {
		t.Fatal("egress read must invalidate the MLC copy")
	}
	if h.LLCOccupancy() != 1 {
		t.Fatal("line must be back in the LLC")
	}
	if h.Stats().MLCWriteback != 1 {
		t.Fatalf("egress of dirty MLC line counts as MLC WB: %+v", h.Stats())
	}
	// Egress keeps IO classification.
	if h.LLCOccupancyIO() != 1 {
		t.Fatal("egress-evicted DMA line keeps IO classification")
	}
}

func TestPCIeReadFromLLCAndDRAM(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 3)
	if lat := h.PCIeRead(0, 3); lat != h.llcLat {
		t.Fatalf("LLC egress latency %v", lat)
	}
	if lat := h.PCIeRead(0, 99); lat <= h.llcLat {
		t.Fatalf("uncached egress latency %v should include DRAM", lat)
	}
}

func TestInvalidateNoWBDropsEverywhereWithoutDRAMTraffic(t *testing.T) {
	h := small(t)
	h.RegisterInvalidatable(mem.Region{Size: 1000 * mem.LineBytes})
	h.PCIeWrite(0, 11)
	h.CoreRead(0, 0, 11) // dirty line in MLC
	h.PCIeWrite(0, 12)   // dirty line in LLC
	wBefore := h.DRAM().Writes()
	h.InvalidateNoWB(0, 0, 11)
	h.InvalidateNoWB(0, 0, 12)
	if h.DRAM().Writes() != wBefore {
		t.Fatal("InvalidateNoWB must not generate DRAM writes")
	}
	if h.MLCOccupancy(0) != 0 || h.LLCOccupancy() != 0 {
		t.Fatal("lines must be dropped from MLC and LLC")
	}
	if h.Stats().SelfInval != 2 {
		t.Fatalf("self invals %d, want 2", h.Stats().SelfInval)
	}
	// Invalidating an absent line is a no-op.
	h.InvalidateNoWB(0, 0, 999)
	if h.Stats().SelfInval != 2 {
		t.Fatal("absent-line invalidate must not count")
	}
}

func TestInvalidateRegionNoWB(t *testing.T) {
	h := small(t)
	r := mem.Region{Base: 0, Size: 2048}
	h.RegisterInvalidatable(r)
	for l := mem.LineAddr(0); l < 32; l++ {
		h.PCIeWrite(0, l)
		h.CoreRead(0, 0, l)
	}
	h.InvalidateRegionNoWB(0, 0, r)
	if h.MLCOccupancy(0) != 0 {
		t.Fatalf("MLC still holds %d lines", h.MLCOccupancy(0))
	}
}

func TestInvalidatableEnforcement(t *testing.T) {
	h := small(t)
	h.RegisterInvalidatable(mem.Region{Base: 0, Size: 2048})
	h.PCIeWrite(0, 1)
	h.InvalidateNoWB(0, 0, 1) // registered: fine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered line")
		}
	}()
	h.InvalidateNoWB(0, 0, 1000)
}

func TestPrefetchToMLCMovesLLCLine(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 21)
	if !h.PrefetchToMLC(0, 1, 21) {
		t.Fatal("prefetch should fill")
	}
	if h.MLCOccupancy(1) != 1 || h.LLCOccupancy() != 0 {
		t.Fatal("prefetch must move the line LLC -> MLC")
	}
	// Demand read now hits MLC.
	if lat := h.CoreRead(0, 1, 21); lat != h.mlcLat {
		t.Fatalf("post-prefetch latency %v, want MLC hit %v", lat, h.mlcLat)
	}
	// Prefetching a resident line is dropped.
	if h.PrefetchToMLC(0, 1, 21) {
		t.Fatal("resident prefetch must be dropped")
	}
	st := h.Stats()
	if st.PrefetchFill != 1 || st.PrefetchDrop != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPrefetchFromDRAM(t *testing.T) {
	h := small(t)
	r := h.DRAM().Reads()
	if !h.PrefetchToMLC(0, 0, 77) {
		t.Fatal("uncached prefetch should fill from DRAM")
	}
	if h.DRAM().Reads() != r+1 {
		t.Fatal("prefetch must read DRAM")
	}
}

func TestPrefetchDoesNotStealFromOtherMLC(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 5)
	h.CoreRead(0, 0, 5) // in core 0's MLC
	if h.PrefetchToMLC(0, 1, 5) {
		t.Fatal("prefetch must not move a line resident in another MLC")
	}
}

func TestCrossCoreTransfer(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 8)
	h.CoreWrite(0, 0, 8) // dirty in core 0
	lat := h.CoreRead(0, 1, 8)
	if lat != h.llcLat {
		t.Fatalf("cross-core transfer latency %v", lat)
	}
	if h.MLCOccupancy(0) != 0 || h.MLCOccupancy(1) != 1 {
		t.Fatal("line must move core0 -> core1")
	}
	// Dirtiness must be preserved across the transfer.
	h2 := small(t)
	h2.PCIeWrite(0, 8)
	h2.CoreRead(0, 0, 8)
	h2.CoreRead(0, 1, 8)
	// Evict it from core 1 and check it writes back as dirty.
	for i := mem.LineAddr(100); i < 100+64; i++ {
		h2.PCIeWrite(0, i)
		h2.CoreRead(0, 1, i)
	}
	if h2.Stats().MLCWriteback == 0 {
		t.Fatal("transferred dirty line must eventually write back dirty")
	}
}

func TestCoreWriteMarksDirtyThroughL1(t *testing.T) {
	h := small(t)
	h.CoreRead(0, 0, 30)  // clean fill from DRAM
	h.CoreWrite(0, 0, 30) // L1 hit store
	// Evict from MLC by streaming the set; dirty line must write back.
	// MLC is 4-way, 16 sets; line 30 maps to set 30%16=14. Fill 4 more
	// lines in set 14: 46, 62, 78, 94.
	for _, l := range []mem.LineAddr{46, 62, 78, 94} {
		h.CoreRead(0, 0, l)
	}
	if h.Stats().MLCWriteback != 1 {
		t.Fatalf("store-dirtied line must write back: %+v", h.Stats())
	}
}

func TestDirectDRAMWriteBypassesCaches(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 40)
	h.CoreRead(0, 0, 40) // cached copy in MLC
	w := h.DRAM().Writes()
	h.DirectDRAMWrite(0, 40)
	if h.DRAM().Writes() != w+1 {
		t.Fatal("direct write must hit DRAM")
	}
	if h.MLCOccupancy(0) != 0 || h.LLCOccupancy() != 0 {
		t.Fatal("stale cached copies must be dropped")
	}
	if h.Stats().DDIOToDRAM != 1 {
		t.Fatalf("stats %+v", h.Stats())
	}
	// Next core read must come from DRAM.
	r := h.DRAM().Reads()
	h.CoreRead(0, 0, 40)
	if h.DRAM().Reads() != r+1 {
		t.Fatal("read after direct DRAM write must miss on chip")
	}
}

func TestDirectoryBackInvalidation(t *testing.T) {
	cfg := Config{
		Clock:    sim.NewClock(3_000_000_000),
		NumCores: 1,
		L1Size:   1 << 10, L1Assoc: 2, L1Lat: 2,
		MLCSize: 64 << 10, MLCAssoc: 16, MLCLat: 12, // big MLC (1024 lines)
		LLCSize: 64 << 10, LLCAssoc: 8, LLCLat: 24,
		DDIOWays:          2,
		DirEntriesPerCore: 16, // tiny directory forces conflicts
		DirAssoc:          4,
		DRAM:              dram.Config{AccessLatency: 80 * sim.Nanosecond, BytesPerSecond: 25_600_000_000},
	}
	h := New(cfg)
	for i := mem.LineAddr(0); i < 256; i++ {
		h.CoreRead(0, 0, i)
	}
	if h.Stats().DirBackInval == 0 {
		t.Fatal("tiny directory must force back-invalidations")
	}
	// Every MLC-resident line must still be tracked (inclusion of the
	// directory over MLC contents).
	if h.MLCOccupancy(0) > h.dir.entries() {
		t.Fatalf("MLC holds %d lines but directory only tracks %d",
			h.MLCOccupancy(0), h.dir.entries())
	}
}

func TestMLCWBTimelineRecords(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MLCSize = 4 << 10
	cfg.MLCAssoc = 4
	cfg.LLCSize = 16 << 10
	cfg.LLCAssoc = 8
	cfg.DirEntriesPerCore = 256
	h := New(cfg)
	now := sim.Time(15 * sim.Microsecond)
	for i := mem.LineAddr(0); i < 128; i++ {
		h.PCIeWrite(now, i)
		h.CoreRead(now, 0, i)
	}
	if h.MLCWBTL.Total() == 0 {
		t.Fatal("timeline must record MLC writebacks")
	}
	if h.MLCWBTL.Count(1) != h.MLCWBTL.Total() {
		t.Fatal("all events at 15us belong to bucket 1")
	}
}

// tinyDir is small with a directory of 8 entries per core in 2-way
// sets, so conflicts back-invalidate constantly.
func tinyDir(t *testing.T) *Hierarchy {
	h := small(t)
	cfg := h.Config()
	cfg.DirEntriesPerCore, cfg.DirAssoc = 8, 2
	return New(cfg)
}

// invariantConfigs are the hierarchies the random-op tests drive.
var invariantConfigs = []struct {
	name string
	mk   func(*testing.T) *Hierarchy
}{{"default", small}, {"nine", nine}, {"tiny-directory", tinyDir}}

// randomOp applies one of the hierarchy's eleven operations, drawn
// from rng, over a working set of lines lines (and a second one above
// it), and returns a name for the op and its result.
func randomOp(h hierOps, rng *rand.Rand, now sim.Time, lines int) (string, int64) {
	l := mem.LineAddr(rng.Intn(lines))
	core := rng.Intn(2)
	switch rng.Intn(11) {
	case 0:
		return fmt.Sprintf("read c%d l%d", core, l), int64(h.CoreRead(now, core, l))
	case 1:
		return fmt.Sprintf("write c%d l%d", core, l), int64(h.CoreWrite(now, core, l))
	case 2:
		return fmt.Sprintf("pcie-write l%d", l), int64(h.PCIeWrite(now, l))
	case 3:
		class := rng.Intn(4)
		return fmt.Sprintf("pcie-write-class%d l%d", class, l), int64(h.PCIeWriteClass(now, l, class))
	case 4:
		return fmt.Sprintf("pcie-read l%d", l), int64(h.PCIeRead(now, l))
	case 5:
		return fmt.Sprintf("direct-dram l%d", l), int64(h.DirectDRAMWrite(now, l))
	case 6:
		if h.PrefetchToMLC(now, core, l) {
			return fmt.Sprintf("prefetch c%d l%d", core, l), 1
		}
		return fmt.Sprintf("prefetch c%d l%d", core, l), 0
	case 7:
		h.InvalidateNoWB(now, core, l)
		return fmt.Sprintf("inval c%d l%d", core, l), 0
	case 8:
		n := 1 + rng.Intn(6)
		r := mem.Region{Base: l.Addr() + mem.Addr(rng.Intn(64)), Size: uint64(n * 64)}
		h.InvalidateRegionNoWB(now, core, r)
		return fmt.Sprintf("inval-region c%d %v+%d", core, r.Base, r.Size), 0
	case 9:
		h.WarmWrite(core, l)
		return fmt.Sprintf("warm c%d l%d", core, l), 0
	default:
		l += mem.LineAddr(lines) // a second working set
		return fmt.Sprintf("read c%d l%d", core, l), int64(h.CoreRead(now, core, l))
	}
}

// checkCoherence fails the test with CheckCoherence's error.
func checkCoherence(t *testing.T, h *Hierarchy, when string) {
	t.Helper()
	if err := h.CheckCoherence(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// Coherence invariants (CheckCoherence) hold after every operation,
// under victim-cache and NINE semantics and with a directory small
// enough that conflicts back-invalidate constantly. The implied-probe
// shortcuts in the hierarchy rest on them.
func TestExclusivityInvariantUnderRandomOps(t *testing.T) {
	forEachInvariantConfig(t, func(t *testing.T, h *Hierarchy) {
		rng := rand.New(rand.NewSource(42))
		for op := 0; op < 20000; op++ {
			now := sim.Time(op) * sim.Time(sim.Nanosecond)
			what, _ := randomOp(h, rng, now, 96)
			checkCoherence(t, h, fmt.Sprintf("op %d (%s)", op, what))
		}
	})
}

// L1 must remain a subset of the MLC on every core, after every
// hierarchy operation, under victim-cache and NINE semantics and with a
// directory small enough that conflicts back-invalidate constantly.
// The MLC-first probes
// (invalidation, snoops, prefetch drops) skip the L1 whenever the MLC
// misses, so they are exact only while this holds; CheckCoherence
// checks it through the L1 and MLC back-pointers.
func TestL1SubsetInvariant(t *testing.T) {
	forEachInvariantConfig(t, func(t *testing.T, h *Hierarchy) {
		rng := rand.New(rand.NewSource(43))
		for op := 0; op < 20000; op++ {
			now := sim.Time(op) * sim.Time(sim.Nanosecond)
			what, _ := randomOp(h, rng, now, 96)
			checkCoherence(t, h, fmt.Sprintf("op %d (%s)", op, what))
		}
		if h.cfg.DirEntriesPerCore == 8 && h.Stats().DirBackInval == 0 {
			t.Fatal("the tiny directory never back-invalidated")
		}
	})
}

// forEachInvariantConfig runs fn on a fresh hierarchy of every
// invariant config, as subtest "<config>/placed": every line the
// hierarchy holds carries a placement record.
func forEachInvariantConfig(t *testing.T, fn func(*testing.T, *Hierarchy)) {
	for _, tc := range invariantConfigs {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("placed", func(t *testing.T) {
				fn(t, randomOpHierarchy(t, tc.mk))
			})
		})
	}
}

// randomOpHierarchy builds a hierarchy for the random-op tests, with
// one QoS class holding a one-way DDIO quota and the lines randomOp
// may invalidate registered Invalidatable.
func randomOpHierarchy(t *testing.T, mk func(*testing.T) *Hierarchy) *Hierarchy {
	h := mk(t)
	h.SetClassDDIOWays(1, 1)
	h.RegisterInvalidatable(mem.Region{Size: randomOpInvalidatable * mem.LineBytes})
	return h
}

// randomOpInvalidatable bounds, in lines from 0, what randomOp
// invalidates: below lines+7, and every caller passes 96 lines.
const randomOpInvalidatable = 256

func nine(t *testing.T) *Hierarchy {
	t.Helper()
	cfg := Config{
		Clock:    sim.NewClock(3_000_000_000),
		NumCores: 2,
		L1Size:   1 << 10, L1Assoc: 2, L1Lat: 2,
		MLCSize: 4 << 10, MLCAssoc: 4, MLCLat: 12,
		LLCSize: 16 << 10, LLCAssoc: 8, LLCLat: 24,
		DDIOWays:          2,
		DirEntriesPerCore: 256,
		DirAssoc:          8,
		DRAM:              dram.Config{AccessLatency: 80 * sim.Nanosecond, BytesPerSecond: 25_600_000_000},
		RetainLLCOnHit:    true,
	}
	return New(cfg)
}

func TestNINERetainsLLCCopyOnHit(t *testing.T) {
	h := nine(t)
	h.PCIeWrite(0, 9)
	h.CoreRead(0, 0, 9)
	// Fig. 1's P2 state: valid in both MLC and LLC.
	if h.mlc[0].Find(9) < 0 || h.llc.Find(9) < 0 {
		t.Fatal("NINE hit must leave copies in both levels")
	}
	// Only one dirty copy: dirtiness moved to the MLC.
	if ln := state(h.llc, 9); ln.Dirty {
		t.Fatal("retained LLC copy must be clean")
	}
	if ln := state(h.mlc[0], 9); !ln.Dirty {
		t.Fatal("MLC copy must carry the dirtiness")
	}
}

func TestNINEP2IngressInvalidatesMLCAndUpdatesLLC(t *testing.T) {
	h := nine(t)
	h.PCIeWrite(0, 9)
	h.CoreRead(0, 0, 9) // P2: both levels
	h.PCIeWrite(0, 9)   // NIC reuse
	st := h.Stats()
	// P2-1: MLC invalidated; P2-2: LLC updated in place.
	if st.MLCInval != 1 {
		t.Fatalf("P2-1 invalidation missing: %+v", st)
	}
	if st.DDIOUpdate != 1 {
		t.Fatalf("P2-2 in-place update missing: %+v", st)
	}
	if h.mlc[0].Find(9) >= 0 {
		t.Fatal("MLC copy must be gone")
	}
	if ln := state(h.llc, 9); ln == nil || !ln.Dirty || !ln.IO {
		t.Fatalf("LLC copy state: %+v", ln)
	}
}

func TestNINEMLCEvictionUpdatesRetainedCopyInPlace(t *testing.T) {
	h := nine(t)
	h.PCIeWrite(0, 9)
	h.CoreWrite(0, 0, 9) // P2 with dirty MLC copy
	llcOcc := h.LLCOccupancy()
	// Evict line 9 from the MLC by filling its set (16 sets, stride 16).
	for i := mem.LineAddr(1); i <= 4; i++ {
		h.CoreRead(0, 0, 9+i*16)
	}
	if h.mlc[0].Find(9) >= 0 {
		t.Fatal("line must have been evicted from MLC")
	}
	// The writeback lands in the retained LLC copy: dirty again, no
	// extra allocation beyond the demand fills' own footprint.
	if ln := state(h.llc, 9); ln == nil || !ln.Dirty {
		t.Fatalf("retained copy must absorb the writeback: %+v", ln)
	}
	_ = llcOcc
	if h.Stats().MLCWriteback == 0 {
		t.Fatal("eviction still counts as MLC->LLC writeback traffic")
	}
}

// A NINE LLC hit must take the line from any other MLC that read the
// retained copy earlier; otherwise a DMA snoop later reaches only the
// core the directory names and the other keeps stale data.
func TestNINEHitTakesForeignMLCCopy(t *testing.T) {
	h := nine(t)
	h.PCIeWrite(0, 9)
	h.CoreWrite(0, 0, 9) // dirty MLC copy in core 0, clean copy in the LLC
	h.CoreRead(0, 1, 9)
	if h.mlc[0].Find(9) >= 0 || h.l1[0].Find(9) >= 0 {
		t.Fatal("core 0 still holds line 9 after core 1's LLC hit")
	}
	if ln := state(h.mlc[1], 9); ln == nil || !ln.Dirty {
		t.Fatalf("core 1's copy must carry core 0's dirtiness: %+v", ln)
	}
	h.PCIeWrite(0, 9)
	if h.Residency(9) != "llc" {
		t.Fatalf("after a DMA write line 9 is in %q, want the LLC only", h.Residency(9))
	}
}

// WarmWrite into one core must drop another MLC's copy of the line.
func TestWarmWriteTakesForeignMLCCopy(t *testing.T) {
	h := small(t)
	h.CoreRead(0, 0, 7)
	h.WarmWrite(1, 7)
	if h.mlc[0].Find(7) >= 0 || h.l1[0].Find(7) >= 0 {
		t.Fatal("core 0 still holds line 7 after core 1's warm write")
	}
	if e := h.dir.scan(7); e < 0 || h.dir.ownerAt(e) != 1 || h.mlc[1].Find(7) < 0 {
		t.Fatalf("line 7 must be in core 1's MLC and named so by the directory (entry %d)", e)
	}
	h.PCIeWrite(0, 7)
	if h.Residency(7) != "llc" {
		t.Fatalf("after a DMA write line 7 is in %q, want the LLC only", h.Residency(7))
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero cores")
		}
	}()
	New(Config{NumCores: 0})
}

// TestInvalidatableRegistryMatchesPerLineSet checks the region-set
// registry against the per-line set it replaced: for random adjacent,
// overlapping and out-of-order regions with unaligned edges, every
// line gets the same enforcement verdict (panic or not).
func TestInvalidatableRegistryMatchesPerLineSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	verdict := func(h *Hierarchy, l mem.LineAddr) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		h.InvalidateNoWB(0, 0, l)
		return false
	}
	for iter := 0; iter < 300; iter++ {
		h := small(t)
		ref := make(map[mem.LineAddr]bool)
		prev := mem.Region{}
		for i := rng.Intn(24); i > 0; i-- {
			r := mem.Region{Base: mem.Addr(rng.Intn(256 * mem.LineBytes)), Size: uint64(rng.Intn(8 * mem.LineBytes))}
			switch rng.Intn(4) {
			case 0:
				r.Base = prev.End()
			case 1:
				r.Base = prev.Base + mem.Addr(rng.Int63n(int64(prev.Size)+1))
			}
			h.RegisterInvalidatable(r)
			r.Lines(func(l mem.LineAddr) { ref[l] = true })
			prev = r
		}
		for l := mem.LineAddr(0); l < 266; l++ {
			if got := verdict(h, l); got != !ref[l] {
				t.Fatalf("iter %d: line %d panicked=%v, per-line set says registered=%v", iter, l, got, ref[l])
			}
		}
	}
}

// The directory's 32-bit LRU clock renumbers its stamps instead of
// wrapping: a tiny directory whose clock is pushed to the edge again
// and again (a forward jump keeps every order) evicts exactly as one
// whose clock never gets near it.
func TestDirectoryClockRenumberKeepsEvictions(t *testing.T) {
	ra, rb := rand.New(rand.NewSource(45)), rand.New(rand.NewSource(45))
	a, b := randomOpHierarchy(t, tinyDir), randomOpHierarchy(t, tinyDir)
	for op := 0; op < 20000; op++ {
		if op%200 == 0 {
			b.dir.clock = math.MaxUint32 - uint32(op%7)
		}
		now := sim.Time(op) * sim.Time(sim.Nanosecond)
		wa, xa := randomOp(a, ra, now, 96)
		wb, xb := randomOp(b, rb, now, 96)
		if wa != wb || xa != xb || a.Stats() != b.Stats() {
			t.Fatalf("op %d: %s=%d vs %s=%d, stats %+v vs %+v", op, wa, xa, wb, xb, a.Stats(), b.Stats())
		}
	}
	ha, hb := fnv.New64a(), fnv.New64a()
	writeResidency(ha, a, 200)
	writeResidency(hb, b, 200)
	if ha.Sum64() != hb.Sum64() {
		t.Fatal("residency differs after the run")
	}
	if a.Stats().DirBackInval == 0 || b.dir.clock > 1<<20 {
		t.Fatalf("back-invalidations %d, clock %d: no eviction or no renumbering", a.Stats().DirBackInval, b.dir.clock)
	}
}

// Two lines far apart, lines 0 and 2^34, each get a record page of
// their own and nothing more: records stay sparse, reading a record
// never written allocates nothing, and the far line's record answers
// as any other.
func TestFarApartLinesRecords(t *testing.T) {
	h := small(t)
	const far = mem.LineAddr(1) << 34
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h.CoreWrite(0, 0, 0)
	h.CoreWrite(0, 1, far)
	runtime.ReadMemStats(&m1)
	page := uint64(unsafe.Sizeof(recordPage{}))
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 2*page+4096 {
		t.Fatalf("two fills allocated %d bytes; two record pages are %d", got, 2*page)
	}
	checkCoherence(t, h, "after the fills")
	if h.Residency(0) != "mlc0" || h.Residency(far) != "mlc1" {
		t.Fatalf("lines in %q and %q, want mlc0 and mlc1", h.Residency(0), h.Residency(far))
	}
	if n := testing.AllocsPerRun(10, func() { h.PCIeRead(0, far+1<<20) }); n != 0 {
		t.Fatalf("reading a line never filled allocated %v times", n)
	}
	h.PCIeWrite(0, far)
	if st := h.Stats(); h.Residency(far) != "llc" || st.MLCInval != 1 || st.DDIOAlloc != 1 {
		t.Fatalf("DMA write of the far line: in %q, stats %+v", h.Residency(far), st)
	}
	checkCoherence(t, h, "after the DMA write")
}
