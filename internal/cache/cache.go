// Package cache implements a set-associative cache tag store with
// pluggable replacement and per-allocation way masks.
//
// Way masks are the mechanism behind two policies the paper depends on:
// DDIO write-allocates are confined to a small number of LLC ways
// (2 of 11 on Skylake-SP), and Fig. 4's "_1way" configurations confine
// an application to a single LLC way via way partitioning. A mask
// restricts only *victim selection* on fills; hits are serviced from
// any way, matching real CAT/DDIO semantics.
package cache

import (
	"fmt"
	"math/bits"
)

// WayMask selects the ways an allocation may victimise. Bit i set means
// way i is allowed.
type WayMask uint64

// AllWays allows allocation into every way.
const AllWays WayMask = ^WayMask(0)

// FirstN returns a mask of the first n ways (the convention used for
// DDIO ways throughout this repo).
func FirstN(n int) WayMask {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return AllWays
	}
	return WayMask(1<<uint(n)) - 1
}

// ExceptFirstN returns a mask of every way except the first n.
func ExceptFirstN(n int) WayMask { return ^FirstN(n) }

// Count returns the number of ways enabled in the mask (capped at 64).
func (m WayMask) Count() int { return bits.OnesCount64(uint64(m)) }

// Policy selects the replacement algorithm.
type Policy int

const (
	// LRU is true least-recently-used via a monotonic use clock.
	LRU Policy = iota
	// TreePLRU is the tree pseudo-LRU used by real MLC/LLC designs.
	// It requires power-of-two associativity.
	TreePLRU
	// SRRIP is static re-reference interval prediction (2-bit RRPV),
	// the family modern Intel LLCs approximate. Streaming DMA data
	// inserts with a long predicted re-reference interval, so it ages
	// out ahead of hot application lines — a behaviour LRU cannot
	// express.
	SRRIP
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case TreePLRU:
		return "tree-plru"
	case SRRIP:
		return "srrip"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// SRRIP constants: 2-bit re-reference prediction values.
const (
	rrpvBits    = 2
	rrpvMax     = 1<<rrpvBits - 1 // 3: predicted distant re-reference
	rrpvInsert  = rrpvMax - 1     // 2: long interval on insertion
	rrpvPromote = 0               // hit promotes to near-immediate
)

// Line is a tag-store entry. Addr is the full line address (the tag and
// index are not split out; the set index is derived on lookup).
type Line struct {
	Addr  uint64 // line address (byte address >> 6)
	Valid bool
	Dirty bool
	// IO marks lines written by a PCIe transaction that have not yet
	// been re-classified by a CPU-side fill. The DMA-bloating analysis
	// (Sec. III, Observation 3) depends on tracking when I/O data loses
	// this classification.
	IO bool
}

// invalidTag marks an empty way in Cache.tags. Simulated line
// addresses are byte addresses >> 6 and never reach 2^64-1.
const invalidTag = ^uint64(0)

// Victim describes a line displaced by an Insert.
type Victim struct {
	Addr  uint64
	Dirty bool
	IO    bool
}

// Stats are the cache's aggregate event counts.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Inserts    uint64
	Evictions  uint64 // valid victims displaced by fills
	DirtyEvict uint64 // subset of Evictions with the dirty bit set
	Invals     uint64 // explicit invalidations that hit
}

// Config describes cache geometry.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	Policy    Policy
}

// Cache is a single-level tag store. It tracks no data payloads: the
// simulator reasons purely about residency and state transitions.
//
// Every operation probes its set once: find scans the set's tags, and
// a fill picks its victim from the set's valid bitmap and the
// replacement stamps of the allowed ways only.
type Cache struct {
	cfg   Config
	sets  int
	lines []Line // sets*assoc, row-major
	// tags mirrors lines' (Valid, Addr) pairs as one word per way —
	// invalidTag when the way is empty, the line address otherwise. A
	// 16-way set's tags span two cache lines instead of the four that
	// the Line structs occupy, which matters because find is the
	// hottest loop in the whole simulator (every DMA line write, CPU
	// access and prefetch probes a set).
	tags []uint64
	// use is parallel to tags: each way's replacement stamp, the use
	// clock under LRU and the RRPV under SRRIP (unused by TreePLRU).
	use []uint64
	// valid holds one bitmap per set, bit w set when way w holds a
	// line, so a fill finds a free allowed way without scanning.
	valid    []uint64
	ways     WayMask  // FirstN(assoc): the ways a mask can select
	plru     []uint64 // one tree per set (TreePLRU only)
	useClock uint64
	occ      int // valid-line count, maintained incrementally
	stats    Stats
	probes   uint64 // tag searches (calls to find)
}

// New builds a cache from the configuration. SizeBytes must be a
// multiple of Assoc*64 and the resulting set count a power of two.
func New(cfg Config) *Cache {
	if cfg.Assoc <= 0 || cfg.Assoc > 64 {
		panic(fmt.Sprintf("cache %s: bad associativity %d", cfg.Name, cfg.Assoc))
	}
	lineCount := cfg.SizeBytes / 64
	if lineCount <= 0 || lineCount%cfg.Assoc != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible into %d ways", cfg.Name, cfg.SizeBytes, cfg.Assoc))
	}
	sets := lineCount / cfg.Assoc
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	if cfg.Policy == TreePLRU && cfg.Assoc&(cfg.Assoc-1) != 0 {
		panic(fmt.Sprintf("cache %s: tree-PLRU needs power-of-two associativity, got %d", cfg.Name, cfg.Assoc))
	}
	c := &Cache{
		cfg:   cfg,
		sets:  sets,
		lines: make([]Line, sets*cfg.Assoc),
		tags:  make([]uint64, sets*cfg.Assoc),
		use:   make([]uint64, sets*cfg.Assoc),
		valid: make([]uint64, sets),
		ways:  FirstN(cfg.Assoc),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if cfg.Policy == TreePLRU {
		c.plru = make([]uint64, sets)
	}
	return c
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// NumSets returns the set count.
func (c *Cache) NumSets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.cfg.Assoc }

// SizeBytes returns the capacity in bytes.
func (c *Cache) SizeBytes() int { return c.cfg.SizeBytes }

// Stats returns a copy of the aggregate counters.
func (c *Cache) Stats() Stats { return c.stats }

// Probes returns how many tag searches the cache has made: one per
// Lookup, Take, Contains, Insert, Invalidate and SetDirty. Fill makes
// none. It is a host-cost count, kept apart from Stats.
func (c *Cache) Probes() uint64 { return c.probes }

func (c *Cache) setIndex(lineAddr uint64) int {
	return int(lineAddr & uint64(c.sets-1))
}

// find probes lineAddr's set once, returning the set index and the
// way holding the line (-1 on a miss).
func (c *Cache) find(lineAddr uint64) (si, way int) {
	c.probes++
	si = c.setIndex(lineAddr)
	base := si * c.cfg.Assoc
	tags := c.tags[base : base+c.cfg.Assoc]
	for w := range tags {
		if tags[w] == lineAddr {
			return si, w
		}
	}
	return si, -1
}

// Lookup probes for lineAddr. When touch is true a hit updates
// replacement state (a snoop or occupancy probe passes false). It
// returns the entry (valid until the next mutation) or nil on miss.
// Lookup counts hits/misses only when touch is true so that occupancy
// scans do not pollute the statistics.
func (c *Cache) Lookup(lineAddr uint64, touch bool) *Line {
	si, way := c.probe(lineAddr, touch)
	if way < 0 {
		return nil
	}
	return &c.lines[si*c.cfg.Assoc+way]
}

// Take is Lookup followed by Invalidate in one probe: it removes
// lineAddr and returns the entry it held. With touch it counts the hit
// (or miss) and updates replacement state first, exactly as Lookup
// would; a hit counts as an invalidation either way.
func (c *Cache) Take(lineAddr uint64, touch bool) (Line, bool) {
	si, way := c.probe(lineAddr, touch)
	if way < 0 {
		return Line{}, false
	}
	ln := c.lines[si*c.cfg.Assoc+way]
	c.invalidate(si, way)
	return ln, true
}

// probe is find plus Lookup's accounting: with touch, a miss or a hit
// is counted and a hit updates replacement state.
func (c *Cache) probe(lineAddr uint64, touch bool) (si, way int) {
	si, way = c.find(lineAddr)
	if touch {
		if way < 0 {
			c.stats.Misses++
		} else {
			c.stats.Hits++
			c.touch(si, way)
		}
	}
	return si, way
}

// Contains reports residency without touching replacement state or
// statistics.
func (c *Cache) Contains(lineAddr uint64) bool {
	_, way := c.find(lineAddr)
	return way >= 0
}

// touch updates replacement state on a hit: a use-clock stamp under
// LRU, the tree under TreePLRU, a promoted RRPV under SRRIP.
func (c *Cache) touch(si, way int) {
	switch c.cfg.Policy {
	case LRU:
		c.useClock++
		c.use[si*c.cfg.Assoc+way] = c.useClock
	case TreePLRU:
		c.plruTouch(si, way)
	case SRRIP:
		c.use[si*c.cfg.Assoc+way] = rrpvPromote
	}
}

// Insert fills lineAddr with the given state. If the line is already
// present it is updated in place (dirty/IO bits OR in, IO bit is
// *replaced*: a CPU-side insert clears I/O classification). The fill
// victimises only ways allowed by mask. It returns the displaced victim
// if one was valid.
func (c *Cache) Insert(lineAddr uint64, dirty, io bool, mask WayMask) (Victim, bool) {
	si, way := c.find(lineAddr)
	if way < 0 {
		return c.fill(si, lineAddr, dirty, io, mask)
	}
	c.stats.Inserts++
	ln := &c.lines[si*c.cfg.Assoc+way]
	ln.Dirty = ln.Dirty || dirty
	ln.IO = io
	c.touch(si, way)
	return Victim{}, false
}

// Fill is Insert for a line the caller knows is absent (it has just
// missed, and nothing has filled it since): it skips the presence
// probe and goes straight to victim selection. Filling a line that is
// already resident would leave two copies in the set.
func (c *Cache) Fill(lineAddr uint64, dirty, io bool, mask WayMask) (Victim, bool) {
	return c.fill(c.setIndex(lineAddr), lineAddr, dirty, io, mask)
}

func (c *Cache) fill(si int, lineAddr uint64, dirty, io bool, mask WayMask) (Victim, bool) {
	c.stats.Inserts++
	way := c.victimWay(si, mask)
	i := si*c.cfg.Assoc + way
	var v Victim
	evicted := c.valid[si]&(1<<uint(way)) != 0
	if evicted {
		old := &c.lines[i]
		v = Victim{Addr: old.Addr, Dirty: old.Dirty, IO: old.IO}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.DirtyEvict++
		}
	} else {
		c.occ++
		c.valid[si] |= 1 << uint(way)
	}
	c.lines[i] = Line{Addr: lineAddr, Valid: true, Dirty: dirty, IO: io}
	c.tags[i] = lineAddr
	if c.cfg.Policy == SRRIP {
		c.use[i] = rrpvInsert
	} else {
		c.touch(si, way)
	}
	return v, evicted
}

// victimWay picks the fill way: an invalid allowed way if any exists,
// otherwise the replacement policy's choice among allowed ways. It
// visits only the allowed ways (mask bits at or above the
// associativity select nothing).
//
// Invalid ways are taken from the HIGHEST index down. DDIO ways sit
// at the low indices by convention, so unmasked (CPU-side) fills
// prefer invalid slots outside the DDIO region and only squat in a
// DDIO way when nothing else is free. Without this bias, slots freed
// by IDIO's prefetcher attract application victims that the very next
// DMA write-allocate clobbers — wrecking the LLC isolation the
// mechanism is supposed to provide.
func (c *Cache) victimWay(si int, mask WayMask) int {
	if mask == 0 {
		panic(fmt.Sprintf("cache %s: empty way mask", c.cfg.Name))
	}
	allowed := uint64(mask & c.ways)
	if allowed == 0 {
		panic(fmt.Sprintf("cache %s: mask %x selects no way of %d", c.cfg.Name, mask, c.cfg.Assoc))
	}
	if free := allowed &^ c.valid[si]; free != 0 {
		return 63 - bits.LeadingZeros64(free)
	}
	use := c.use[si*c.cfg.Assoc : (si+1)*c.cfg.Assoc]
	switch c.cfg.Policy {
	case TreePLRU:
		return c.plruVictim(si, mask)
	case SRRIP:
		// The lowest allowed way predicted for distant re-reference; if
		// none is, age every allowed way until the oldest (the lowest
		// of them on a tie) reaches it — the same outcome as aging one
		// step at a time and rescanning.
		first, oldest := -1, uint64(0)
		for m := allowed; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if u := use[w]; u >= rrpvMax {
				return w
			} else if first < 0 || u > oldest {
				first, oldest = w, u
			}
		}
		for m := allowed; m != 0; m &= m - 1 {
			use[bits.TrailingZeros64(m)] += rrpvMax - oldest
		}
		return first
	default:
		// The least recently used allowed way, the lowest on a tie.
		best, bestUse := -1, ^uint64(0)
		for m := allowed; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if use[w] < bestUse {
				best, bestUse = w, use[w]
			}
		}
		return best
	}
}

// Invalidate drops lineAddr if present, returning whether it was
// present and whether it was dirty. No writeback is generated here;
// the caller decides what to do with a dirty victim (this is exactly
// the distinction IDIO's invalidate-without-writeback exploits).
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	si, way := c.find(lineAddr)
	if way < 0 {
		return false, false
	}
	dirty = c.lines[si*c.cfg.Assoc+way].Dirty
	c.invalidate(si, way)
	return true, dirty
}

// invalidate empties a valid way.
func (c *Cache) invalidate(si, way int) {
	i := si*c.cfg.Assoc + way
	c.stats.Invals++
	c.lines[i] = Line{}
	c.tags[i] = invalidTag
	c.valid[si] &^= 1 << uint(way)
	c.occ--
}

// SetDirty marks a resident line dirty; it reports whether the line was
// present.
func (c *Cache) SetDirty(lineAddr uint64) bool {
	si, way := c.find(lineAddr)
	if way < 0 {
		return false
	}
	c.lines[si*c.cfg.Assoc+way].Dirty = true
	return true
}

// Occupancy returns the number of valid lines in O(1).
func (c *Cache) Occupancy() int { return c.occ }

// LoadFraction returns occupancy as a fraction of capacity.
func (c *Cache) LoadFraction() float64 {
	return float64(c.occ) / float64(len(c.lines))
}

// OccupancyIO returns the number of valid lines still classified as
// I/O data.
func (c *Cache) OccupancyIO() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid && c.lines[i].IO {
			n++
		}
	}
	return n
}

// ForEach visits every valid line. Mutating the cache during iteration
// is not allowed.
func (c *Cache) ForEach(fn func(Line)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(c.lines[i])
		}
	}
}

// Flush invalidates the entire cache, returning the dirty lines that
// would have been written back.
func (c *Cache) Flush() []Victim {
	var out []Victim
	for i := range c.lines {
		if c.lines[i].Valid {
			if c.lines[i].Dirty {
				out = append(out, Victim{Addr: c.lines[i].Addr, Dirty: true, IO: c.lines[i].IO})
			}
			c.lines[i] = Line{}
		}
		c.tags[i] = invalidTag
	}
	for si := range c.valid {
		c.valid[si] = 0
	}
	c.occ = 0
	return out
}

// --- tree pseudo-LRU ---
//
// The PLRU tree for an a-way set is a complete binary tree with a-1
// internal nodes stored as bits of a uint64; bit k is node k in
// heap order. A 0 bit points left, 1 points right; on a touch every
// node on the path is set to point *away* from the touched way.

func (c *Cache) plruTouch(setIdx, way int) {
	a := c.cfg.Assoc
	node := 0
	lo, hi := 0, a
	tree := c.plru[setIdx]
	// Bit semantics: node bit set means the next victim lies in the
	// right subtree. Touching a way flips each node on its path to
	// point at the opposite subtree.
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			tree |= 1 << uint(node)
			node = 2*node + 1
			hi = mid
		} else {
			tree &^= 1 << uint(node)
			node = 2*node + 2
			lo = mid
		}
	}
	c.plru[setIdx] = tree
}

// plruVictim walks the tree toward the pseudo-LRU way; if that way is
// excluded by the mask, it falls back to the lowest allowed way whose
// subtree the walk would have abandoned (a standard hardware
// simplification for partitioned PLRU).
func (c *Cache) plruVictim(setIdx int, mask WayMask) int {
	a := c.cfg.Assoc
	tree := c.plru[setIdx]
	node := 0
	lo, hi := 0, a
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		goRight := tree&(1<<uint(node)) != 0
		// Respect the mask: if the chosen half has no allowed way,
		// take the other half.
		if goRight {
			if !maskHasWayIn(mask, mid, hi) {
				goRight = false
			}
		} else {
			if !maskHasWayIn(mask, lo, mid) {
				goRight = true
			}
		}
		if goRight {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	if mask&(1<<uint(lo)) == 0 {
		panic(fmt.Sprintf("cache %s: PLRU walk reached disallowed way %d (mask %x)", c.cfg.Name, lo, mask))
	}
	return lo
}

// maskHasWayIn reports whether mask allows any way in [lo, hi).
func maskHasWayIn(mask WayMask, lo, hi int) bool {
	return mask&(FirstN(hi)&^FirstN(lo)) != 0
}
