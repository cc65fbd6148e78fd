package hier

import (
	"fmt"
	"math/rand"
	"testing"

	"idio/internal/cache"
	"idio/internal/mem"
	"idio/internal/sim"
)

// spec is a line-addressed model of the hierarchy, the reference that
// TestMatchesSpec and FuzzHierOps hold Hierarchy to op by op. It finds
// a line only by searching: cache.Find on every structure, and
// specDir.owner for the directory. So it keeps none of the hierarchy's
// back-pointers, placement records or directory way indices. Each
// cache-model rule of DESIGN.md is one method, citing the paper section
// it models. The tag stores are cache.Cache values of the hierarchy's
// geometry, used through Find and the slot operations only; the tag
// store has its own reference test (TestTagStoreMatchesReference).
type spec struct {
	cfg                   Config
	l1, mlc               []*cache.Cache
	llc                   *cache.Cache
	dir                   specDir
	ddio                  cache.WayMask
	class                 [4]cache.WayMask
	l1Lat, mlcLat, llcLat sim.Duration

	stats                 Stats
	demand                []CoreDemand
	mlcWB                 []uint64 // per core, as Hierarchy.MLCWritebacks
	dramReads, dramWrites uint64
	// viaDRAM says the last op's latency includes a DRAM access. The
	// spec does not model DRAM timing, so it returns only the on-chip
	// part of such a latency.
	viaDRAM bool
}

// specDir models the snoop-filter directory as sets of (line, owner,
// last use) entries: a new entry takes the lowest empty way of its
// set, else evicts the least recently used entry.
type specDir struct {
	sets, assoc int
	ents        []specEnt
	clock       uint64
}

type specEnt struct {
	line  uint64
	owner int
	use   uint64 // 0 marks an empty way
}

func newSpec(cfg Config) *spec {
	if cfg.AppWayMask == 0 {
		cfg.AppWayMask = cache.AllWays
	}
	s := &spec{
		cfg:    cfg,
		llc:    cache.New(cache.Config{Name: "llc", SizeBytes: cfg.LLCSize, Assoc: cfg.LLCAssoc, Policy: cfg.Policy}),
		ddio:   cache.FirstN(cfg.DDIOWays),
		l1Lat:  cfg.Clock.Cycles(cfg.L1Lat),
		mlcLat: cfg.Clock.Cycles(cfg.MLCLat),
		llcLat: cfg.Clock.Cycles(cfg.LLCLat),
		demand: make([]CoreDemand, cfg.NumCores),
		mlcWB:  make([]uint64, cfg.NumCores),
	}
	for c := 0; c < cfg.NumCores; c++ {
		size := cfg.MLCSize
		if c < len(cfg.MLCSizePerCore) && cfg.MLCSizePerCore[c] > 0 {
			size = cfg.MLCSizePerCore[c]
		}
		s.l1 = append(s.l1, cache.New(cache.Config{SizeBytes: cfg.L1Size, Assoc: cfg.L1Assoc, Policy: cfg.Policy}))
		s.mlc = append(s.mlc, cache.New(cache.Config{SizeBytes: size, Assoc: cfg.MLCAssoc, Policy: cfg.Policy}))
	}
	sets := cfg.NumCores * cfg.DirEntriesPerCore / cfg.DirAssoc
	if sets <= 0 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	s.dir = specDir{sets: sets, assoc: cfg.DirAssoc, ents: make([]specEnt, sets*cfg.DirAssoc)}
	return s
}

// SetClassDDIOWays gives a QoS class its own DDIO way quota (0 clears it).
func (s *spec) SetClassDDIOWays(class, n int) { s.class[class] = cache.FirstN(n) }

func (d *specDir) set(la uint64) []specEnt {
	b := int(la&uint64(d.sets-1)) * d.assoc
	return d.ents[b : b+d.assoc]
}

// owner returns the core the directory says holds la.
func (d *specDir) owner(la uint64) (int, bool) {
	for _, e := range d.set(la) {
		if e.use != 0 && e.line == la {
			return e.owner, true
		}
	}
	return 0, false
}

func (d *specDir) remove(la uint64) {
	set := d.set(la)
	for i := range set {
		if set[i].use != 0 && set[i].line == la {
			set[i] = specEnt{}
		}
	}
}

// track records that owner's MLC holds la, renaming la's entry or
// adding one, and returns the entry an addition evicted.
func (d *specDir) track(la uint64, owner int) (specEnt, bool) {
	d.clock++
	set := d.set(la)
	for i := range set {
		if set[i].use != 0 && set[i].line == la {
			set[i].owner, set[i].use = owner, d.clock
			return specEnt{}, false
		}
	}
	w := -1
	for i := range set {
		if set[i].use == 0 {
			w = i
			break
		}
	}
	var v specEnt
	evicted := w < 0
	if evicted {
		w = 0
		for i := range set {
			if set[i].use < set[w].use {
				w = i
			}
		}
		v = set[w]
	}
	set[w] = specEnt{line: la, owner: owner, use: d.clock}
	return v, evicted
}

// state returns la's state in c, or nil when c does not hold it.
func state(c *cache.Cache, la uint64) *cache.State {
	return c.LookupAt(la, c.Find(la), false)
}

// mlcHolder returns a core whose MLC holds la.
func (s *spec) mlcHolder(la uint64) (int, bool) {
	for c, m := range s.mlc {
		if m.Find(la) >= 0 {
			return c, true
		}
	}
	return 0, false
}

// dropPrivate removes la from core c's L1 and MLC and from the
// directory, and returns the MLC copy, which carries any L1 store.
func (s *spec) dropPrivate(c int, la uint64) cache.Line {
	if w := s.l1[c].Find(la); w >= 0 {
		s.l1[c].InvalidateAt(la, w)
	}
	s.dir.remove(la)
	ln, _ := s.mlc[c].TakeAt(la, s.mlc[c].Find(la), false)
	return ln
}

// CoreRead and CoreWrite are the demand access: the L1, the core's MLC
// and the LLC serve it at their Table I latencies. A line another
// core's MLC holds moves to this one (a cross-core transfer, charged
// as an LLC hit); a line no cache holds fills the MLC and L1 from
// DRAM, bypassing the LLC, which only MLC victims fill (Sec. III).
func (s *spec) CoreRead(now sim.Time, core int, line mem.LineAddr) sim.Duration {
	return s.access(core, uint64(line), false)
}

func (s *spec) CoreWrite(now sim.Time, core int, line mem.LineAddr) sim.Duration {
	return s.access(core, uint64(line), true)
}

func (s *spec) access(core int, la uint64, store bool) sim.Duration {
	if w := s.l1[core].Find(la); w >= 0 {
		if st := s.l1[core].LookupAt(la, w, true); store {
			st.Dirty = true
			state(s.mlc[core], la).Dirty = true
		}
		s.stats.DemandL1Hit++
		s.demand[core].L1Hit++
		return s.l1Lat
	}
	if w := s.mlc[core].Find(la); w >= 0 {
		if st := s.mlc[core].LookupAt(la, w, true); store {
			st.Dirty = true
		}
		s.fillL1(core, la, store)
		s.stats.DemandMLCHit++
		s.demand[core].MLCHit++
		return s.mlcLat
	}
	var ln cache.Line
	if w := s.llc.Find(la); w >= 0 && s.cfg.RetainLLCOnHit {
		ln = s.nineHit(la, w)
	} else if w >= 0 {
		// The exclusive victim LLC moves a hit line to the MLC (Sec. III:
		// "its tag will be moved to the directory").
		ln, _ = s.llc.TakeAt(la, w, true)
	} else if c, ok := s.mlcHolder(la); ok {
		ln = s.dropPrivate(c, la)
	} else {
		s.dramReads++
		s.viaDRAM = true
		s.fillMLC(core, la, store, false)
		s.fillL1(core, la, store)
		s.stats.DemandDRAM++
		s.demand[core].DRAM++
		return s.llcLat
	}
	s.fillMLC(core, la, ln.Dirty || store, ln.IO)
	s.fillL1(core, la, store)
	s.stats.DemandLLCHit++
	s.demand[core].LLCHit++
	return s.llcLat
}

// nineHit is the NINE (non-inclusive non-exclusive) LLC hit, Fig. 1's
// P2 state: the line is copied to the MLC and a clean copy stays in
// the LLC, so only the MLC copy ever writes the data back. A copy
// another core read from the LLC earlier moves here, so one MLC at
// most holds the line. It returns the state the MLC copy takes.
func (s *spec) nineHit(la uint64, way int) cache.Line {
	st := s.llc.LookupAt(la, way, true)
	ln := cache.Line{Dirty: st.Dirty, IO: st.IO}
	st.Dirty = false
	if c, ok := s.mlcHolder(la); ok {
		ln.Dirty = s.dropPrivate(c, la).Dirty || ln.Dirty
	}
	return ln
}

// fillL1 fills la into core's L1 from its MLC. The L1 is a subset of
// the MLC, so a dirty L1 victim marks its MLC copy dirty.
func (s *spec) fillL1(core int, la uint64, dirty bool) {
	if _, v, ev := s.l1[core].Fill(la, dirty, false, cache.AllWays); ev && v.Dirty {
		state(s.mlc[core], v.Addr).Dirty = true
	}
}

// fillMLC fills la, which no MLC holds, into core's MLC and tracks it
// in the directory. The MLC victim spills into the LLC (Sec. III); a
// directory conflict back-invalidates the line its evicted entry
// tracked.
func (s *spec) fillMLC(core int, la uint64, dirty, io bool) {
	if _, v, ev := s.mlc[core].Fill(la, dirty, io, cache.AllWays); ev {
		s.dropL1Victim(core, v.Addr)
		s.spill(core, v.Addr, v.Dirty, false)
	}
	if e, ev := s.dir.track(la, core); ev {
		s.backInvalidate(e)
	}
}

// dropL1Victim drops the L1 copy and the directory entry of v, which
// has just left core's MLC.
func (s *spec) dropL1Victim(core int, v uint64) {
	if w := s.l1[core].Find(v); w >= 0 {
		s.l1[core].InvalidateAt(v, w)
	}
	s.dir.remove(v)
}

// backInvalidate is the directory's conflict eviction (the Skylake-SP
// snoop filter, Sec. II-A): the line the evicted entry tracked leaves
// its MLC and spills into the LLC like any MLC victim.
func (s *spec) backInvalidate(e specEnt) {
	s.stats.DirBackInval++
	ln := s.dropPrivate(e.owner, e.line)
	s.spill(e.owner, e.line, ln.Dirty, false)
}

// spill is the MLC writeback of Sec. III: a line leaving core's MLC
// allocates into the LLC's application ways, so a DMA line the core
// consumed can land outside the DDIO ways (DMA bloating, Observation
// 3). A capacity victim loses its I/O class here; an egress writeback
// keeps it.
func (s *spec) spill(core int, la uint64, dirty, io bool) {
	s.stats.MLCWriteback++
	s.mlcWB[core]++
	if dirty {
		s.stats.MLCWBDirty++
	}
	if v, ev := s.allocApp(la, dirty, io); ev && v.Dirty {
		s.llcWriteback(v)
	}
}

// allocApp puts la into the LLC's application ways. Under exclusive
// semantics the LLC does not hold a line an MLC held; NINE's retained
// copy is updated in place instead.
func (s *spec) allocApp(la uint64, dirty, io bool) (cache.Victim, bool) {
	if w := s.llc.Find(la); w >= 0 {
		st := s.llc.LookupAt(la, w, true)
		st.Dirty = st.Dirty || dirty
		st.IO = io
		return cache.Victim{}, false
	}
	_, v, ev := s.llc.Fill(la, dirty, io, s.cfg.AppWayMask)
	return v, ev
}

// llcWriteback writes a dirty LLC victim to DRAM; one still classed
// I/O is a DMA leak (Sec. III).
func (s *spec) llcWriteback(v cache.Victim) {
	s.stats.LLCWriteback++
	if v.IO {
		s.stats.LLCWBIO++
	}
	s.dramWrites++
}

// snoop drops every MLC copy of a line a DMA write overwrites, without
// writeback (Fig. 1's P1-1 and P2-1).
func (s *spec) snoop(la uint64) {
	for c, m := range s.mlc {
		if m.Find(la) >= 0 {
			s.dropPrivate(c, la)
			s.stats.MLCInval++
		}
	}
}

// PCIeWrite and PCIeWriteClass are DDIO's inbound DMA write (Sec. II-B,
// Fig. 1 ingress): MLC copies are snooped away, an LLC copy in any way
// is updated in place (write-update: P2-2, P3-1, P4-1) and otherwise
// the line write-allocates into the DDIO ways (P1-2, P5-1), or into a
// QoS class's quota when it has one.
func (s *spec) PCIeWrite(now sim.Time, line mem.LineAddr) sim.Duration {
	return s.ddioWrite(uint64(line), s.ddio)
}

func (s *spec) PCIeWriteClass(now sim.Time, line mem.LineAddr, class int) sim.Duration {
	if class >= 0 && class < len(s.class) && s.class[class] != 0 {
		return s.ddioWrite(uint64(line), s.class[class])
	}
	return s.ddioWrite(uint64(line), s.ddio)
}

func (s *spec) ddioWrite(la uint64, mask cache.WayMask) sim.Duration {
	s.snoop(la)
	if w := s.llc.Find(la); w >= 0 {
		st := s.llc.LookupAt(la, w, true)
		st.Dirty, st.IO = true, true
		s.stats.DDIOUpdate++
		return s.llcLat
	}
	if _, v, ev := s.llc.Fill(la, true, true, mask); ev && v.Dirty {
		s.llcWriteback(v)
	}
	s.stats.DDIOAlloc++
	return s.llcLat
}

// PCIeRead is the outbound DMA read (Fig. 1 egress): an MLC copy is
// written back to the LLC, keeping its I/O class, and served from there
// (P1-1, P2-1); an LLC copy is served in place (P3, P4); otherwise DRAM
// serves it (P5).
func (s *spec) PCIeRead(now sim.Time, line mem.LineAddr) sim.Duration {
	la := uint64(line)
	if c, ok := s.mlcHolder(la); ok {
		ln := s.dropPrivate(c, la)
		s.spill(c, la, ln.Dirty, ln.IO)
		return s.llcLat + s.mlcLat
	}
	if w := s.llc.Find(la); w >= 0 {
		s.llc.LookupAt(la, w, true)
		return s.llcLat
	}
	s.dramReads++
	s.viaDRAM = true
	return s.llcLat
}

// DirectDRAMWrite is IDIO's selective direct DRAM access (Sec. V-C):
// the inbound line goes to DRAM and every cached copy is dropped.
func (s *spec) DirectDRAMWrite(now sim.Time, line mem.LineAddr) sim.Duration {
	la := uint64(line)
	s.snoop(la)
	if w := s.llc.Find(la); w >= 0 {
		s.llc.InvalidateAt(la, w)
	}
	s.stats.DDIOToDRAM++
	s.dramWrites++
	s.viaDRAM = true
	return 0
}

// PrefetchToMLC is IDIO's network-driven MLC prefetch (Sec. V-B): a
// line no MLC holds moves from the LLC, or comes from DRAM, into the
// core's MLC (not its L1). A line an MLC holds is left where it is.
func (s *spec) PrefetchToMLC(now sim.Time, core int, line mem.LineAddr) bool {
	la := uint64(line)
	if _, ok := s.mlcHolder(la); ok {
		s.stats.PrefetchDrop++
		return false
	}
	var ln cache.Line
	if w := s.llc.Find(la); w >= 0 {
		ln, _ = s.llc.TakeAt(la, w, false)
	} else {
		s.dramReads++
	}
	s.fillMLC(core, la, ln.Dirty, ln.IO)
	s.stats.PrefetchFill++
	return true
}

// InvalidateNoWB and InvalidateRegionNoWB are IDIO's self-invalidation
// (Sec. V-D): each line leaves the core's L1 and MLC and the LLC with
// no writeback. Another core's MLC copy is out of the instruction's
// reach.
func (s *spec) InvalidateNoWB(now sim.Time, core int, line mem.LineAddr) {
	s.selfInvalidate(core, uint64(line))
}

func (s *spec) InvalidateRegionNoWB(now sim.Time, core int, r mem.Region) {
	for l := r.Base.Line(); l < r.Base.Line()+mem.LineAddr(r.NumLines()); l++ {
		s.selfInvalidate(core, uint64(l))
	}
}

func (s *spec) selfInvalidate(core int, la uint64) {
	dropped := false
	if s.mlc[core].Find(la) >= 0 {
		s.dropPrivate(core, la)
		dropped = true
	}
	if w := s.llc.Find(la); w >= 0 {
		s.llc.InvalidateAt(la, w)
		dropped = true
	}
	if dropped {
		s.stats.SelfInval++
	}
}

// WarmWrite is the Sec. VI warm-up fill: the line moves into the
// core's MLC with no latency, DRAM traffic or statistics. Its MLC
// victim spills into the LLC and that spill's victim is dropped (warm
// data is DRAM-backed); a directory conflict drops its line silently.
func (s *spec) WarmWrite(core int, line mem.LineAddr) {
	la := uint64(line)
	if s.mlc[core].Find(la) >= 0 {
		return
	}
	if c, ok := s.mlcHolder(la); ok {
		s.dropPrivate(c, la)
	}
	if w := s.llc.Find(la); w >= 0 {
		s.llc.InvalidateAt(la, w)
	}
	if _, v, ev := s.mlc[core].Fill(la, false, false, cache.AllWays); ev {
		s.dropL1Victim(core, v.Addr)
		s.allocApp(v.Addr, v.Dirty, false)
	}
	if e, ev := s.dir.track(la, core); ev {
		s.dropPrivate(e.owner, e.line)
	}
}

// hierOps is the op set randomOp draws from; the hierarchy and the
// spec both implement it.
type hierOps interface {
	CoreRead(now sim.Time, core int, line mem.LineAddr) sim.Duration
	CoreWrite(now sim.Time, core int, line mem.LineAddr) sim.Duration
	PCIeWrite(now sim.Time, line mem.LineAddr) sim.Duration
	PCIeWriteClass(now sim.Time, line mem.LineAddr, class int) sim.Duration
	PCIeRead(now sim.Time, line mem.LineAddr) sim.Duration
	DirectDRAMWrite(now sim.Time, line mem.LineAddr) sim.Duration
	PrefetchToMLC(now sim.Time, core int, line mem.LineAddr) bool
	InvalidateNoWB(now sim.Time, core int, line mem.LineAddr)
	InvalidateRegionNoWB(now sim.Time, core int, r mem.Region)
	WarmWrite(core int, line mem.LineAddr)
}

// specFor returns a spec of h's geometry, configured like
// randomOpHierarchy configures the hierarchies.
func specFor(h *Hierarchy) *spec {
	s := newSpec(h.Config())
	s.SetClassDDIOWays(1, 1)
	return s
}

// specStep applies the next random op to h and s, each drawing from its
// own copy of the op stream, and returns an error naming the first
// difference: the op's result (a latency exactly, less its DRAM part
// when DRAM served it), Stats, Demand, per-core MLC writebacks, DRAM
// traffic, and each line's residency, dirtiness, I/O bit and directory
// owner.
func specStep(h *Hierarchy, s *spec, rh, rs *rand.Rand, op, lines int) error {
	now := sim.Time(op) * sim.Time(sim.Nanosecond)
	s.viaDRAM = false
	what, x := randomOp(h, rh, now, lines)
	_, y := randomOp(s, rs, now, lines)
	if x != y && !(s.viaDRAM && x > y) {
		return fmt.Errorf("op %d (%s): result %d, spec %d (via DRAM %v)", op, what, x, y, s.viaDRAM)
	}
	if d := diffSpec(h, s, 2*lines+8); d != "" {
		return fmt.Errorf("op %d (%s): %s", op, what, d)
	}
	return nil
}

// diffSpec describes the first difference between h and s, or returns "".
func diffSpec(h *Hierarchy, s *spec, lines int) string {
	if h.Stats() != s.stats {
		return fmt.Sprintf("stats %+v, spec %+v", h.Stats(), s.stats)
	}
	for c := range h.mlc {
		if h.Demand(c) != s.demand[c] || h.MLCWritebacks(c) != s.mlcWB[c] {
			return fmt.Sprintf("core %d demand %+v and %d MLC writebacks, spec %+v and %d", c, h.Demand(c), h.MLCWritebacks(c), s.demand[c], s.mlcWB[c])
		}
	}
	if h.dram.Reads() != s.dramReads || h.dram.Writes() != s.dramWrites {
		return fmt.Sprintf("DRAM reads %d writes %d, spec %d and %d", h.dram.Reads(), h.dram.Writes(), s.dramReads, s.dramWrites)
	}
	var a, b []byte
	for la := uint64(0); la < uint64(lines); la++ {
		a = lineResidency(a[:0], h.l1, h.mlc, h.llc, h.dirOwner, la)
		b = lineResidency(b[:0], s.l1, s.mlc, s.llc, s.dir.owner, la)
		if string(a) != string(b) {
			return fmt.Sprintf("line %d is %s, spec %s (per core L1 and MLC, then LLC, directory owner)", la, a, b)
		}
	}
	return ""
}

// dirOwner returns the core h's directory names for la.
func (h *Hierarchy) dirOwner(la uint64) (int, bool) {
	if e := h.dir.scan(la); e >= 0 {
		return h.dir.ownerAt(e), true
	}
	return 0, false
}

// TestMatchesSpec runs the same random ops, WarmWrite included, on the
// hierarchy and on the spec in every invariant config, and requires
// them to agree after every op (specStep).
func TestMatchesSpec(t *testing.T) {
	forEachInvariantConfig(t, func(t *testing.T, h *Hierarchy) {
		s := specFor(h)
		rh, rs := rand.New(rand.NewSource(46)), rand.New(rand.NewSource(46))
		for op := 0; op < 20000; op++ {
			if err := specStep(h, s, rh, rs, op, 96); err != nil {
				t.Fatal(err)
			}
		}
	})
}
