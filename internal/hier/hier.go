// Package hier implements the non-inclusive Skylake-SP-style cache
// hierarchy that IDIO targets: a private L1D and MLC (L2) per core, a
// shared non-inclusive LLC acting as a victim cache with dedicated DDIO
// ways, a snoop-filter directory tracking MLC-resident lines, and a
// bandwidth-limited DRAM behind it.
//
// The package exposes exactly the transactions the paper reasons about:
//
//   - CoreRead / CoreWrite     — demand accesses from a core
//   - PCIeWrite                — inbound DMA (DDIO ingress, Fig. 1)
//   - PCIeRead                 — outbound DMA (TX egress, Fig. 1)
//   - DirectDRAMWrite          — IDIO's selective direct DRAM access
//   - PrefetchToMLC            — IDIO's network-driven MLC prefetch
//   - InvalidateNoWB           — IDIO's self-invalidating I/O buffers
//
// Modeling decisions (see DESIGN.md): lines move (rather than copy)
// from LLC to MLC on core demand, DRAM fills bypass the LLC, and MLC
// victims allocate into any LLC way — which is precisely what lets DMA
// data bloat beyond the DDIO ways (Sec. III, Observation 3).
//
// Every transaction finds its line through the line's placement
// record (placement.go), which every fill writes, and the
// back-pointers between the levels, so none searches a tag store or
// the directory (DESIGN.md, "Carried placement"). The tests hold the
// hierarchy, op by op, to a line-addressed spec that finds lines only
// by searching (spec_test.go).
package hier

import (
	"fmt"

	"idio/internal/cache"
	"idio/internal/dram"
	"idio/internal/mem"
	"idio/internal/obs"
	"idio/internal/sim"
	"idio/internal/stats"
)

// Config describes the hierarchy geometry and latencies. Cycle counts
// follow Table I of the paper.
type Config struct {
	Clock    sim.Clock
	NumCores int

	L1Size  int // bytes, per core
	L1Assoc int
	L1Lat   int64 // cycles

	MLCSize  int // bytes, per core
	MLCAssoc int
	MLCLat   int64 // cycles
	// MLCSizePerCore overrides MLCSize for individual cores when
	// non-nil (index = core). Sec. VI shrinks the LLCAntagonist core's
	// MLC to 256 KB to make it LLC-sensitive. Zero entries fall back
	// to MLCSize.
	MLCSizePerCore []int

	LLCSize  int // bytes, shared
	LLCAssoc int
	LLCLat   int64 // cycles
	// DDIOWays is how many LLC ways PCIe write-allocates may fill
	// (2 of 11 on Skylake-SP).
	DDIOWays int
	// AppWayMask restricts CPU-side LLC allocations (MLC victims and
	// egress writebacks). AllWays models the unpartitioned default;
	// Fig. 4's "_1way" runs confine the app to a single non-DDIO way.
	AppWayMask cache.WayMask

	// DirEntriesPerCore sizes the snoop-filter directory. Skylake-SP
	// over-provisions the directory relative to aggregate MLC capacity;
	// we default to 1.5x the per-core MLC line count.
	DirEntriesPerCore int
	DirAssoc          int

	DRAM dram.Config

	// TimelineBucket enables per-interval rate sampling when > 0.
	TimelineBucket sim.Duration

	// Policy selects replacement for MLC and LLC.
	Policy cache.Policy

	// RetainLLCOnHit selects NINE (non-inclusive non-exclusive)
	// semantics: an LLC hit for a core demand copies the line to the
	// MLC but leaves a clean copy in the LLC, enabling Fig. 1's "P2"
	// state (valid in both MLC and LLC). The default (false) is the
	// victim-cache move-on-hit the paper's data-movement discussion
	// assumes ("its tag will be moved to the directory"). Real
	// Skylake-SP behaves adaptively between the two.
	RetainLLCOnHit bool
}

// DefaultConfig mirrors the gem5 configuration in Table I for the given
// number of cores: per-core 32 KB L1D (2-way, 2 CC), 1 MB MLC (8-way,
// 12 CC), and a shared LLC of 1.5 MB x 12 ways per core (24 CC) with
// 2 DDIO ways.
func DefaultConfig(cores int) Config {
	return Config{
		Clock:             sim.NewClock(3_000_000_000),
		NumCores:          cores,
		L1Size:            32 << 10,
		L1Assoc:           2,
		L1Lat:             2,
		MLCSize:           1 << 20,
		MLCAssoc:          8,
		MLCLat:            12,
		LLCSize:           llcSizeFor(cores, 12), // ~1.5MB per core
		LLCAssoc:          12,
		LLCLat:            24,
		DDIOWays:          2,
		AppWayMask:        cache.AllWays,
		DirEntriesPerCore: (1 << 20) / 64 * 3 / 2, // 1.5x MLC lines
		DirAssoc:          16,
		DRAM:              dram.DefaultConfig(),
		TimelineBucket:    10 * sim.Microsecond,
		Policy:            cache.LRU,
	}
}

// llcSizeFor sizes a shared LLC at ~1.5 MB per core, rounded down so
// the set count is a power of two for the given associativity (core
// counts that are not powers of two would otherwise produce invalid
// geometry).
func llcSizeFor(cores, assoc int) int {
	want := cores * 3 * (1 << 19) // 1.5MB per core
	sets := want / 64 / assoc
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return p * 64 * assoc
}

// Stats aggregates hierarchy-wide transition counts. All are exact
// transaction counts (one per 64-byte line).
type Stats struct {
	// MLCWriteback counts every MLC victim allocated into the LLC —
	// the MLC-to-LLC traffic the paper's "MLC writeback" rates measure.
	// In a non-inclusive victim hierarchy clean victims transfer too,
	// and they pressure the LLC identically.
	MLCWriteback uint64
	MLCWBDirty   uint64 // subset of MLCWriteback carrying dirty data
	MLCInval     uint64 // MLC line invalidated by a PCIe write
	LLCWriteback uint64 // dirty LLC victim written to DRAM
	LLCWBIO      uint64 // subset of LLCWriteback still classified I/O ("DMA leak")
	DirBackInval uint64 // MLC lines back-invalidated by directory conflicts
	SelfInval    uint64 // lines dropped by InvalidateNoWB
	DDIOUpdate   uint64 // PCIe writes hitting the LLC in place
	DDIOAlloc    uint64 // PCIe writes allocating a DDIO way
	DDIOToDRAM   uint64 // PCIe writes sent straight to DRAM
	PrefetchFill uint64 // prefetches that moved a line into an MLC
	PrefetchDrop uint64 // prefetches dropped (already resident or inflight)
	DemandL1Hit  uint64
	DemandMLCHit uint64
	DemandLLCHit uint64
	DemandDRAM   uint64
}

// CoreDemand is one core's demand-access breakdown by service level.
type CoreDemand struct {
	L1Hit  uint64
	MLCHit uint64
	LLCHit uint64
	DRAM   uint64
}

// Total returns the core's demand access count.
func (d CoreDemand) Total() uint64 { return d.L1Hit + d.MLCHit + d.LLCHit + d.DRAM }

// HitRateOnChip returns the fraction of accesses served without DRAM.
func (d CoreDemand) HitRateOnChip() float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return float64(t-d.DRAM) / float64(t)
}

// Hierarchy is the complete cache system shared by all cores and the
// NIC's DMA engine.
type Hierarchy struct {
	cfg  Config
	l1   []*cache.Cache
	mlc  []*cache.Cache
	llc  *cache.Cache
	dir  *directory
	dram *dram.DRAM

	// Back-pointers between each core's caches and the directory
	// (DESIGN.md, "Carried placement"), indexed by the slot
	// (cache.Slot) of the cache they annotate. A pointer means
	// something only while its slot holds a line.
	mlcDir [][]int32 // per core, per MLC slot: the line's directory entry
	mlcL1  [][]uint8 // per core, per MLC slot: the L1 way holding the line, or noWay
	l1MLC  [][]uint8 // per core, per L1 slot: the MLC way holding the line

	ddioMask cache.WayMask
	appMask  cache.WayMask
	// classMask holds per-QoS-class DDIO way quotas (index =
	// qos.Class); a zero mask falls back to the host-wide ddioMask,
	// so an unarmed hierarchy behaves exactly as before.
	classMask [4]cache.WayMask

	l1Lat, mlcLat, llcLat sim.Duration

	stats       Stats
	demand      []CoreDemand // per-core demand breakdowns
	mlcWBByCore []uint64     // per-core dirty MLC writeback counters (IDIO control plane samples these)

	// Timelines for the paper's rate figures; nil when disabled.
	MLCWBTL  *stats.Timeline
	LLCWBTL  *stats.Timeline
	DMAReqTL *stats.Timeline

	invalidatable mem.RegionSet // lines registered as Invalidatable (Sec. V-D), whole
	// placed holds every line's placement record (placement.go).
	placed placement

	// obs receives line-level trace events (writeback, DMA
	// invalidation, prefetch outcome) for lines belonging to sampled
	// packets. A nil observer costs one branch per event site.
	obs *obs.Observer
}

// noWay marks an MLC line's L1 back-pointer when no L1 way holds it.
const noWay = 0xFF

// New constructs the hierarchy.
func New(cfg Config) *Hierarchy {
	if cfg.NumCores <= 0 {
		panic("hier: need at least one core")
	}
	if cfg.NumCores > maxDirOwners {
		panic(fmt.Sprintf("hier: %d cores exceed the directory's %d owners", cfg.NumCores, maxDirOwners))
	}
	if cfg.DDIOWays <= 0 || cfg.DDIOWays > cfg.LLCAssoc {
		panic(fmt.Sprintf("hier: DDIO ways %d out of range for %d-way LLC", cfg.DDIOWays, cfg.LLCAssoc))
	}
	if cfg.AppWayMask == 0 {
		cfg.AppWayMask = cache.AllWays
	}
	h := &Hierarchy{
		cfg:         cfg,
		llc:         cache.New(cache.Config{Name: "llc", SizeBytes: cfg.LLCSize, Assoc: cfg.LLCAssoc, Policy: cfg.Policy}),
		dram:        dram.New(cfg.DRAM),
		ddioMask:    cache.FirstN(cfg.DDIOWays),
		appMask:     cfg.AppWayMask,
		mlcWBByCore: make([]uint64, cfg.NumCores),
		demand:      make([]CoreDemand, cfg.NumCores),
	}
	for i := 0; i < cfg.NumCores; i++ {
		l1 := cache.New(cache.Config{
			Name: fmt.Sprintf("l1d%d", i), SizeBytes: cfg.L1Size, Assoc: cfg.L1Assoc, Policy: cfg.Policy,
		})
		mlcSize := cfg.MLCSize
		if i < len(cfg.MLCSizePerCore) && cfg.MLCSizePerCore[i] > 0 {
			mlcSize = cfg.MLCSizePerCore[i]
		}
		mlc := cache.New(cache.Config{
			Name: fmt.Sprintf("mlc%d", i), SizeBytes: mlcSize, Assoc: cfg.MLCAssoc, Policy: cfg.Policy,
		})
		h.l1 = append(h.l1, l1)
		h.mlc = append(h.mlc, mlc)
		h.l1MLC = append(h.l1MLC, make([]uint8, l1.NumSets()*l1.Assoc()))
		h.mlcL1 = append(h.mlcL1, make([]uint8, mlc.NumSets()*mlc.Assoc()))
		h.mlcDir = append(h.mlcDir, make([]int32, mlc.NumSets()*mlc.Assoc()))
	}
	h.dir = newDirectory(cfg.NumCores*cfg.DirEntriesPerCore, cfg.DirAssoc)
	h.l1Lat = cfg.Clock.Cycles(cfg.L1Lat)
	h.mlcLat = cfg.Clock.Cycles(cfg.MLCLat)
	h.llcLat = cfg.Clock.Cycles(cfg.LLCLat)
	if cfg.TimelineBucket > 0 {
		h.MLCWBTL = stats.NewTimeline(cfg.TimelineBucket)
		h.LLCWBTL = stats.NewTimeline(cfg.TimelineBucket)
		h.DMAReqTL = stats.NewTimeline(cfg.TimelineBucket)
	}
	return h
}

// Config returns the construction-time configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the aggregate counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// DRAM exposes the memory device (read-only use intended).
func (h *Hierarchy) DRAM() *dram.DRAM { return h.dram }

// MLCWritebacks returns the per-core dirty-MLC-writeback count. The
// IDIO controller samples this every 1 µs (Alg. 1, control plane).
func (h *Hierarchy) MLCWritebacks(core int) uint64 { return h.mlcWBByCore[core] }

// Demand returns a core's demand-access breakdown by service level.
func (h *Hierarchy) Demand(core int) CoreDemand { return h.demand[core] }

// MLCOccupancy returns valid-line counts for a core's MLC.
func (h *Hierarchy) MLCOccupancy(core int) int { return h.mlc[core].Occupancy() }

// MLCLoadFraction returns the core's MLC occupancy as a fraction of
// capacity (O(1); used by the adaptive prefetcher).
func (h *Hierarchy) MLCLoadFraction(core int) float64 { return h.mlc[core].LoadFraction() }

// SetDDIOWays reconfigures how many LLC ways PCIe write-allocates may
// fill, as dynamic DDIO policies (IAT-style) do at runtime. Lines
// already resident outside the new mask stay where they are, exactly
// like CAT repartitioning on real hardware.
func (h *Hierarchy) SetDDIOWays(n int) {
	if n <= 0 || n > h.cfg.LLCAssoc {
		panic(fmt.Sprintf("hier: DDIO ways %d out of range for %d-way LLC", n, h.cfg.LLCAssoc))
	}
	h.ddioMask = cache.FirstN(n)
}

// DDIOWays returns the current DDIO way count.
func (h *Hierarchy) DDIOWays() int { return h.ddioMask.Count() }

// SetClassDDIOWays gives one QoS class a private DDIO way quota:
// inbound DMA carrying that class write-allocates only into the first
// n LLC ways. n = 0 clears the quota (the class reverts to the
// host-wide DDIO mask).
func (h *Hierarchy) SetClassDDIOWays(class, n int) {
	if class < 0 || class >= len(h.classMask) {
		panic(fmt.Sprintf("hier: qos class %d out of range", class))
	}
	if n == 0 {
		h.classMask[class] = 0
		return
	}
	if n < 0 || n > h.cfg.LLCAssoc {
		panic(fmt.Sprintf("hier: class DDIO ways %d out of range for %d-way LLC", n, h.cfg.LLCAssoc))
	}
	h.classMask[class] = cache.FirstN(n)
}

// LLCWBIOCount returns the cumulative DMA-leak count (I/O-classified
// LLC writebacks) — the signal dynamic DDIO policies monitor.
func (h *Hierarchy) LLCWBIOCount() uint64 { return h.stats.LLCWBIO }

// Residency reports where a line currently lives: "mlcN" (core N's
// private cache, which subsumes its L1), "llc", or "" when uncached.
// It is a state probe for tests and tracing; it touches no replacement
// state or statistics.
func (h *Hierarchy) Residency(line mem.LineAddr) string {
	la := uint64(line)
	for i := range h.mlc {
		if h.mlc[i].Find(la) >= 0 {
			return fmt.Sprintf("mlc%d", i)
		}
	}
	if h.llc.Find(la) >= 0 {
		return "llc"
	}
	return ""
}

// LLCOccupancyIO returns the number of LLC lines still classified I/O.
func (h *Hierarchy) LLCOccupancyIO() int { return h.llc.OccupancyIO() }

// LLCOccupancy returns the total number of valid LLC lines.
func (h *Hierarchy) LLCOccupancy() int { return h.llc.Occupancy() }

// --- placement records ---

// place says where a line is: the LLC way holding it, and the core and
// MLC way holding it; a way of -1 means that level does not hold it.
// Exclusive semantics put a line in one place at most; NINE may hold
// it in an MLC and the LLC at once.
type place struct{ llc, core, mlc int }

// locate reads la's placement record. Every fill of an MLC or the LLC
// records its line's slot, so while a line is on chip its record names
// the slot holding it; a slot that no longer holds the line means it
// left that level. One tag compare per level tells the two apart.
func (h *Hierarchy) locate(la uint64) place {
	var p place
	p.llc, p.core, p.mlc = h.placed.at(la)
	if p.llc >= 0 && h.llc.LookupAt(la, p.llc, false) == nil {
		p.llc = -1
	}
	if p.mlc >= 0 && h.mlc[p.core].LookupAt(la, p.mlc, false) == nil {
		p.mlc = -1
	}
	return p
}

// --- CPU demand path ---

// CoreRead performs a demand load of one cacheline by the given core
// and returns its latency.
func (h *Hierarchy) CoreRead(now sim.Time, core int, line mem.LineAddr) sim.Duration {
	return h.coreAccess(now, core, line, false)
}

// CoreWrite performs a demand store (write-allocate, writeback) of one
// cacheline and returns its latency.
func (h *Hierarchy) CoreWrite(now sim.Time, core int, line mem.LineAddr) sim.Duration {
	return h.coreAccess(now, core, line, true)
}

func (h *Hierarchy) coreAccess(now sim.Time, core int, line mem.LineAddr, store bool) sim.Duration {
	la := uint64(line)
	p := h.locate(la)
	var ln cache.Line
	switch {
	case p.mlc >= 0 && p.core == core:
		return h.privateHit(core, la, p.mlc, store)
	case p.llc >= 0 && h.cfg.RetainLLCOnHit:
		// NINE keeps a clean copy behind; the dirtiness moves with the
		// MLC copy, so only one level ever writes back. The retained
		// copy does not mean no MLC holds the line: another core may
		// have read it from the LLC before. Take that core's copy, so
		// only one MLC ever holds the line.
		st := h.llc.LookupAt(la, p.llc, true)
		ln = cache.Line{Dirty: st.Dirty, IO: st.IO}
		st.Dirty = false
		if p.mlc >= 0 {
			ln.Dirty = h.dropMLC(p.core, la, p.mlc).Dirty || ln.Dirty
		}
	case p.llc >= 0:
		// Exclusive: the line moves MLC-ward.
		ln, _ = h.llc.TakeAt(la, p.llc, true)
	case p.mlc >= 0:
		// Another core's MLC holds it: take it (cross-core transfer).
		ln = h.dropMLC(p.core, la, p.mlc)
	default:
		return h.dramFill(now, core, la, store)
	}
	// An LLC hit or a remote transfer, both charged as LLC hits.
	h.fillL1(core, la, store, h.fillMLC(now, core, la, ln.Dirty || store, ln.IO))
	if p.llc >= 0 && h.cfg.RetainLLCOnHit {
		h.placed.noteRetained(la, p.llc)
	}
	h.stats.DemandLLCHit++
	h.demand[core].LLCHit++
	return h.llcLat
}

// dramFill serves a demand access to a line no cache holds from DRAM,
// filling the core's MLC directly (non-inclusive DRAM fills bypass the
// LLC).
func (h *Hierarchy) dramFill(now sim.Time, core int, la uint64, store bool) sim.Duration {
	lat := h.dram.Read(now, la)
	h.fillL1(core, la, store, h.fillMLC(now, core, la, store, false))
	h.stats.DemandDRAM++
	h.demand[core].DRAM++
	return h.llcLat + lat
}

// privateHit serves a demand access to a line at way of the core's own
// MLC, from its L1 copy when it has one.
func (h *Hierarchy) privateHit(core int, la uint64, way int, store bool) sim.Duration {
	if w := h.mlcL1[core][h.mlc[core].Slot(la, way)]; w != noWay {
		return h.l1Hit(core, la, int(w), store)
	}
	return h.mlcHit(core, la, way, store)
}

// l1Hit serves a demand access from way of the core's L1.
func (h *Hierarchy) l1Hit(core int, la uint64, way int, store bool) sim.Duration {
	l1 := h.l1[core]
	ln := l1.LookupAt(la, way, true)
	if store {
		ln.Dirty = true
		// Keep the MLC copy's state conservative for inclusion.
		h.mlc[core].LookupAt(la, int(h.l1MLC[core][l1.Slot(la, way)]), false).Dirty = true
	}
	h.stats.DemandL1Hit++
	h.demand[core].L1Hit++
	return h.l1Lat
}

// mlcHit serves a demand access from way of the core's MLC and fills
// its L1.
func (h *Hierarchy) mlcHit(core int, la uint64, way int, store bool) sim.Duration {
	if ln := h.mlc[core].LookupAt(la, way, true); store {
		ln.Dirty = true
	}
	h.fillL1(core, la, store, way)
	h.stats.DemandMLCHit++
	h.demand[core].MLCHit++
	return h.mlcLat
}

// takeMLC removes la from way of core's MLC, with its L1 copy, and
// returns the entry it held. The caller settles the directory entry.
func (h *Hierarchy) takeMLC(core int, la uint64, way int) cache.Line {
	mlc := h.mlc[core]
	if w := h.mlcL1[core][mlc.Slot(la, way)]; w != noWay {
		h.l1[core].InvalidateAt(la, int(w))
	}
	ln, _ := mlc.TakeAt(la, way, false)
	return ln
}

// dropMLC removes la from way of core's MLC, with its L1 copy and its
// directory entry, and returns the entry it held.
func (h *Hierarchy) dropMLC(core int, la uint64, way int) cache.Line {
	h.dir.removeAt(int(h.mlcDir[core][h.mlc[core].Slot(la, way)]))
	return h.takeMLC(core, la, way)
}

// fillL1 fills a line the core's L1 just missed from way mlcWay of its
// MLC, spilling a dirty victim's state into the victim's MLC copy (L1
// is kept a subset of the MLC).
func (h *Hierarchy) fillL1(core int, la uint64, dirty bool, mlcWay int) {
	l1, mlc := h.l1[core], h.mlc[core]
	way, v, ev := l1.Fill(la, dirty, false, cache.AllWays)
	s := l1.Slot(la, way)
	if ev {
		vw := int(h.l1MLC[core][s])
		h.mlcL1[core][mlc.Slot(v.Addr, vw)] = noWay
		if v.Dirty {
			mlc.LookupAt(v.Addr, vw, false).Dirty = true
		}
	}
	h.l1MLC[core][s] = uint8(mlcWay)
	h.mlcL1[core][mlc.Slot(la, mlcWay)] = uint8(way)
}

// fillMLC fills a line no MLC holds into the core's MLC, handling the
// victim and the line's new directory entry, and returns the way it
// filled.
func (h *Hierarchy) fillMLC(now sim.Time, core int, la uint64, dirty, io bool) int {
	mlc := h.mlc[core]
	way, v, ev := mlc.Fill(la, dirty, io, cache.AllWays)
	s := mlc.Slot(la, way)
	if ev {
		h.unlinkMLC(core, s, v.Addr)
		h.allocLLCVictim(now, core, v)
	}
	e, vd, evd := h.dir.place(la, core, uint8(way))
	if evd {
		// Directory conflict: back-invalidate the displaced MLC line.
		h.backInvalidate(now, vd)
	}
	h.linkMLC(core, s, la, way, e)
	return way
}

// unlinkMLC drops the L1 copy and the directory entry of line v, which
// a fill has just displaced from slot s of core's MLC.
func (h *Hierarchy) unlinkMLC(core, s int, v uint64) {
	if w := h.mlcL1[core][s]; w != noWay {
		h.l1[core].InvalidateAt(v, int(w)) // maintain L1 subset of MLC
	}
	h.dir.removeAt(int(h.mlcDir[core][s]))
}

// linkMLC sets the pointers of slot s of core's MLC, just filled with
// la at way: directory entry e and no L1 copy. It records the
// placement too.
func (h *Hierarchy) linkMLC(core, s int, la uint64, way, e int) {
	h.mlcL1[core][s] = noWay
	h.mlcDir[core][s] = int32(e)
	h.placed.noteMLC(la, core, way)
}

// allocLLCVictim places an MLC victim into the LLC (victim-cache fill).
// The line loses its I/O classification here — that is the DMA-bloating
// mechanism: it may now occupy ANY way permitted to the application.
func (h *Hierarchy) allocLLCVictim(now sim.Time, core int, v cache.Victim) {
	h.stats.MLCWriteback++
	h.mlcWBByCore[core]++
	if h.MLCWBTL != nil {
		h.MLCWBTL.Record(now, 1)
	}
	if v.Dirty {
		h.stats.MLCWBDirty++
	}
	if lv, ev := h.spillToLLC(v.Addr, v.Dirty, false); ev && lv.Dirty {
		h.llcWriteback(now, lv)
	}
}

// spillToLLC allocates a line leaving an MLC into the LLC's
// application ways. With exclusive (victim-cache) semantics no line is
// in an MLC and the LLC at once, so the line is known absent; NINE may
// still hold the clean copy it retained on the hit and updates that
// copy in place (dirtiness ORs in, the I/O class is replaced).
func (h *Hierarchy) spillToLLC(la uint64, dirty, io bool) (cache.Victim, bool) {
	if h.cfg.RetainLLCOnHit {
		if w := h.locate(la).llc; w >= 0 {
			st := h.llc.LookupAt(la, w, true)
			st.Dirty = st.Dirty || dirty
			st.IO = io
			return cache.Victim{}, false
		}
	}
	way, v, ev := h.llc.Fill(la, dirty, io, h.appMask)
	h.placed.noteLLC(la, way)
	return v, ev
}

func (h *Hierarchy) llcWriteback(now sim.Time, v cache.Victim) {
	h.stats.LLCWriteback++
	if v.IO {
		h.stats.LLCWBIO++
	}
	if h.LLCWBTL != nil {
		h.LLCWBTL.Record(now, 1)
	}
	if h.obs.Tracing() {
		h.obs.LineEvent(obs.EvWriteback, now, v.Addr, -1, "llc", 0)
	}
	h.dram.Write(now, v.Addr)
}

// backInvalidate removes the line a displaced directory entry named
// from its core's MLC because the directory ran out of tracking space;
// a dirty line is written back to the LLC.
func (h *Hierarchy) backInvalidate(now sim.Time, vd dirEntry) {
	h.stats.DirBackInval++
	ln := h.takeMLC(vd.owner, vd.line, int(vd.way))
	h.allocLLCVictim(now, vd.owner, cache.Victim{Addr: vd.line, Dirty: ln.Dirty})
}

// --- PCIe ingress (DMA write) path ---

// PCIeWrite performs one full-cacheline inbound DMA write following the
// DDIO ingress flow of Fig. 1 and returns the latency charged to the
// DMA engine.
func (h *Hierarchy) PCIeWrite(now sim.Time, line mem.LineAddr) sim.Duration {
	return h.pcieWriteMask(now, line, h.ddioMask)
}

// PCIeWriteClass is PCIeWrite under a QoS class's way quota: the
// write-allocate is confined to the class's mask when one is set,
// falling back to the host-wide DDIO mask otherwise.
func (h *Hierarchy) PCIeWriteClass(now sim.Time, line mem.LineAddr, class int) sim.Duration {
	mask := h.ddioMask
	if class >= 0 && class < len(h.classMask) && h.classMask[class] != 0 {
		mask = h.classMask[class]
	}
	return h.pcieWriteMask(now, line, mask)
}

func (h *Hierarchy) pcieWriteMask(now sim.Time, line mem.LineAddr, mask cache.WayMask) sim.Duration {
	la := uint64(line)
	if h.DMAReqTL != nil {
		h.DMAReqTL.Record(now, 1)
	}
	// Invalidate any MLC-resident copy (P1/P2 steps in Fig. 1). The data
	// is dead — it is being overwritten — so no writeback happens.
	p := h.locate(la)
	h.snoopInvalMLC(now, la, p)
	if p.llc >= 0 {
		// In-place update (P2-2/P3-1 in Fig. 1).
		ln := h.llc.LookupAt(la, p.llc, true)
		ln.Dirty = true
		ln.IO = true
		h.stats.DDIOUpdate++
		return h.llcLat
	}
	// Write-allocate into the DDIO ways (P1-2/P5-1 in Fig. 1).
	way, v, ev := h.llc.Fill(la, true, true, mask)
	h.placed.noteLLC(la, way)
	if ev && v.Dirty {
		h.llcWriteback(now, v)
	}
	h.stats.DDIOAlloc++
	return h.llcLat
}

// snoopInvalMLC invalidates la from the L1 and MLC of the core p names,
// if any, without writeback, dropping its directory entry.
func (h *Hierarchy) snoopInvalMLC(now sim.Time, la uint64, p place) {
	if p.mlc < 0 {
		return
	}
	h.dropMLC(p.core, la, p.mlc)
	h.stats.MLCInval++
	if h.obs.Tracing() {
		h.obs.LineEvent(obs.EvInval, now, la, p.core, "dma-snoop", 0)
	}
}

// DirectDRAMWrite implements IDIO's selective direct DRAM access: the
// inbound line bypasses the cache hierarchy entirely. Stale cached
// copies are dropped (they are being overwritten).
func (h *Hierarchy) DirectDRAMWrite(now sim.Time, line mem.LineAddr) sim.Duration {
	la := uint64(line)
	if h.DMAReqTL != nil {
		h.DMAReqTL.Record(now, 1)
	}
	p := h.locate(la)
	h.snoopInvalMLC(now, la, p)
	if p.llc >= 0 {
		h.llc.InvalidateAt(la, p.llc)
	}
	h.stats.DDIOToDRAM++
	return h.dram.Write(now, la)
}

// --- PCIe egress (DMA read) path ---

// PCIeRead performs one outbound DMA read (TX) following the egress
// flow of Fig. 1 and returns its latency.
func (h *Hierarchy) PCIeRead(now sim.Time, line mem.LineAddr) sim.Duration {
	la := uint64(line)
	switch p := h.locate(la); {
	case p.mlc >= 0:
		// MLC-resident: write the line back to LLC and serve from there
		// (P1-1/P2-1 in Fig. 1). The MLC copy is invalidated with its
		// directory entry.
		ln := h.dropMLC(p.core, la, p.mlc)
		h.allocLLCVictimEgress(now, p.core, la, ln.Dirty, ln.IO)
		return h.llcLat + h.mlcLat
	case p.llc >= 0:
		h.llc.LookupAt(la, p.llc, true)
		return h.llcLat
	}
	return h.llcLat + h.dram.Read(now, la)
}

// allocLLCVictimEgress places an egress-evicted MLC line into the LLC.
// Unlike a capacity victim it keeps its I/O classification (it is, by
// definition, a DMA buffer being transmitted).
func (h *Hierarchy) allocLLCVictimEgress(now sim.Time, core int, la uint64, dirty, io bool) {
	h.stats.MLCWriteback++
	h.mlcWBByCore[core]++
	if h.MLCWBTL != nil {
		h.MLCWBTL.Record(now, 1)
	}
	if dirty {
		h.stats.MLCWBDirty++
	}
	if lv, ev := h.spillToLLC(la, dirty, io); ev && lv.Dirty {
		h.llcWriteback(now, lv)
	}
}

// --- IDIO mechanisms ---

// RegisterInvalidatable marks a region's lines as safe to invalidate
// without writeback, modeling the kernel-allocated Invalidatable buffer
// of Sec. V-D. InvalidateNoWB panics on unregistered lines, catching
// the privacy bug class the paper describes. Registration covers every
// line the region touches; the registry keeps merged regions, not
// lines.
func (h *Hierarchy) RegisterInvalidatable(r mem.Region) {
	h.invalidatable.Add(r.LineSpan())
}

// ReserveRecords allocates the placement records of r's lines now, so
// that filling them later allocates nothing. A System reserves its
// whole address layout when it starts.
func (h *Hierarchy) ReserveRecords(r mem.Region) { h.placed.reserve(r) }

// InvalidateNoWB drops one cacheline from the requesting core's L1 and
// MLC and from the LLC without any writeback — the new cache
// maintenance instruction of Sec. IV-A / V-D. The line must be
// registered Invalidatable (RegisterInvalidatable).
func (h *Hierarchy) InvalidateNoWB(now sim.Time, core int, line mem.LineAddr) {
	h.invalidateLines(core, line, 1)
}

// InvalidateRegionNoWB applies InvalidateNoWB to every line of a region
// (the multi-cacheline invalidate instruction of Sec. V).
func (h *Hierarchy) InvalidateRegionNoWB(now sim.Time, core int, r mem.Region) {
	h.invalidateLines(core, r.Base.Line(), r.NumLines())
}

// invalidateLines drops the n lines from first on, in address order,
// where their records say: from this core's MLC (its L1 copy follows
// from the MLC copy's pointer) and from the LLC. A copy in another
// core's MLC is out of this core's reach. It panics, before dropping
// any line, when one of them is not registered Invalidatable: the
// Sec. V-D page-table check, one registry lookup per call.
func (h *Hierarchy) invalidateLines(core int, first mem.LineAddr, n int) {
	if !h.invalidatable.Covers(mem.Region{Base: first.Addr(), Size: uint64(n) * mem.LineBytes}) {
		line := first
		for h.invalidatable.Contains(line.Addr()) {
			line++
		}
		panic(fmt.Sprintf("hier: InvalidateNoWB on non-Invalidatable line %v", line))
	}
	for line := first; line < first+mem.LineAddr(n); line++ {
		la := uint64(line)
		p := h.locate(la)
		dropped := p.llc >= 0
		if p.mlc >= 0 && p.core == core {
			h.dropMLC(core, la, p.mlc)
			dropped = true
		}
		if p.llc >= 0 {
			h.llc.InvalidateAt(la, p.llc)
		}
		if dropped {
			h.stats.SelfInval++
		}
	}
}

// PrefetchToMLC services a prefetch hint from the IDIO controller: pull
// the line from LLC (or DRAM) into the destination core's MLC. It does
// not fill the L1 and charges no latency to any core. It reports
// whether a fill actually happened.
func (h *Hierarchy) PrefetchToMLC(now sim.Time, core int, line mem.LineAddr) bool {
	la := uint64(line)
	switch p := h.locate(la); {
	case p.mlc >= 0:
		return h.prefetchDrop(now, core, la, p.core == core)
	case p.llc >= 0:
		ln, _ := h.llc.TakeAt(la, p.llc, false)
		return h.prefetchFill(now, core, la, ln, "fill-llc")
	}
	// Not on chip: fetch from DRAM.
	h.dram.Read(now, la)
	return h.prefetchFill(now, core, la, cache.Line{}, "fill-dram")
}

// prefetchFill fills a prefetched line, which no MLC holds, into
// core's MLC.
func (h *Hierarchy) prefetchFill(now sim.Time, core int, la uint64, ln cache.Line, outcome string) bool {
	h.fillMLC(now, core, la, ln.Dirty, ln.IO)
	h.stats.PrefetchFill++
	h.tracePrefetch(now, la, core, outcome)
	return true
}

// prefetchDrop drops a prefetch of a line an MLC already holds: the
// destination core's own (resident) or another's (left alone).
func (h *Hierarchy) prefetchDrop(now sim.Time, core int, la uint64, resident bool) bool {
	h.stats.PrefetchDrop++
	if resident {
		h.tracePrefetch(now, la, core, "drop-resident")
	} else {
		h.tracePrefetch(now, la, core, "drop-foreign")
	}
	return false
}

// tracePrefetch emits a prefetch-outcome trace event for a sampled
// line.
func (h *Hierarchy) tracePrefetch(now sim.Time, la uint64, core int, outcome string) {
	if h.obs.Tracing() {
		h.obs.LineEvent(obs.EvPrefetch, now, la, core, outcome, 0)
	}
}

// WarmWrite installs a line into a core's MLC as cache warm-up: no
// latency is charged, no DRAM traffic is generated, and no statistics
// are recorded. Victims displaced by the warm fill spill into the LLC
// silently (LLC victims are dropped — warm-up data is DRAM-backed by
// construction). Sec. VI warms the LLCAntagonist's buffer before
// collecting stats; doing it through the timed path would absurdly
// backlog the DRAM bus at t=0.
func (h *Hierarchy) WarmWrite(core int, line mem.LineAddr) {
	la := uint64(line)
	p := h.locate(la)
	if p.mlc >= 0 {
		if p.core == core {
			return // already in this core's MLC
		}
		// Another MLC holds the line: drop its copy silently, as the
		// back-invalidation below does, so only one MLC ever holds it.
		h.dropMLC(p.core, la, p.mlc)
	}
	if p.llc >= 0 {
		h.llc.InvalidateAt(la, p.llc) // keep exclusivity
	}
	mlc := h.mlc[core]
	way, v, ev := mlc.Fill(la, false, false, cache.AllWays)
	s := mlc.Slot(la, way)
	if ev {
		h.unlinkMLC(core, s, v.Addr)
		// Spill silently into the LLC; drop its victim.
		h.spillToLLC(v.Addr, v.Dirty, false)
	}
	e, vd, evd := h.dir.place(la, core, uint8(way))
	if evd {
		// Silent back-invalidation (no stats) during warm-up.
		h.takeMLC(vd.owner, vd.line, int(vd.way))
	}
	h.linkMLC(core, s, la, way, e)
}

// SetObserver attaches the observability layer. A nil observer (the
// default) disables line-level trace emission.
func (h *Hierarchy) SetObserver(o *obs.Observer) { h.obs = o }

// RegisterMetrics registers the hierarchy's counters and occupancy
// gauges under prefix (e.g. "hier."). The occupancy/way gauges expose
// the live state the periodic metric snapshots sample.
func (h *Hierarchy) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"mlc_writebacks", func() uint64 { return h.stats.MLCWriteback })
	reg.CounterFunc(prefix+"mlc_writebacks_dirty", func() uint64 { return h.stats.MLCWBDirty })
	reg.CounterFunc(prefix+"mlc_invalidations", func() uint64 { return h.stats.MLCInval })
	reg.CounterFunc(prefix+"llc_writebacks", func() uint64 { return h.stats.LLCWriteback })
	reg.CounterFunc(prefix+"llc_writebacks_io", func() uint64 { return h.stats.LLCWBIO })
	reg.CounterFunc(prefix+"dir_back_invalidations", func() uint64 { return h.stats.DirBackInval })
	reg.CounterFunc(prefix+"self_invalidations", func() uint64 { return h.stats.SelfInval })
	reg.CounterFunc(prefix+"ddio_updates", func() uint64 { return h.stats.DDIOUpdate })
	reg.CounterFunc(prefix+"ddio_allocations", func() uint64 { return h.stats.DDIOAlloc })
	reg.CounterFunc(prefix+"ddio_direct_dram", func() uint64 { return h.stats.DDIOToDRAM })
	reg.CounterFunc(prefix+"prefetch_fills", func() uint64 { return h.stats.PrefetchFill })
	reg.CounterFunc(prefix+"prefetch_drops", func() uint64 { return h.stats.PrefetchDrop })
	reg.CounterFunc(prefix+"demand_l1_hits", func() uint64 { return h.stats.DemandL1Hit })
	reg.CounterFunc(prefix+"demand_mlc_hits", func() uint64 { return h.stats.DemandMLCHit })
	reg.CounterFunc(prefix+"demand_llc_hits", func() uint64 { return h.stats.DemandLLCHit })
	reg.CounterFunc(prefix+"demand_dram", func() uint64 { return h.stats.DemandDRAM })
	reg.GaugeFunc(prefix+"llc_occupancy", func() float64 { return float64(h.LLCOccupancy()) })
	reg.GaugeFunc(prefix+"llc_occupancy_io", func() float64 { return float64(h.LLCOccupancyIO()) })
	reg.GaugeFunc(prefix+"ddio_ways", func() float64 { return float64(h.DDIOWays()) })
	for i := 0; i < h.cfg.NumCores; i++ {
		i := i
		reg.GaugeFunc(fmt.Sprintf("%smlc%d_occupancy", prefix, i), func() float64 { return float64(h.MLCOccupancy(i)) })
		reg.GaugeFunc(fmt.Sprintf("%smlc%d_load", prefix, i), func() float64 { return h.MLCLoadFraction(i) })
	}
}
