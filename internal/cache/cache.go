// Package cache implements a set-associative cache tag store with
// pluggable replacement and per-allocation way masks.
//
// Way masks are the mechanism behind two policies the paper depends on:
// DDIO write-allocates are confined to a small number of LLC ways
// (2 of 11 on Skylake-SP), and Fig. 4's "_1way" configurations confine
// an application to a single LLC way via way partitioning. A mask
// restricts only *victim selection* on fills; hits are serviced from
// any way, matching real CAT/DDIO semantics.
//
// A line is reached at a slot: the way Fill put it in, which a caller
// keeps and later confirms with one tag compare. Find searches a set
// for a line, for callers that kept no way. The tag store keeps no
// pointers of its own; the hierarchy's back-pointers between levels
// and its placement records are ways it recorded.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
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

// State is a resident line's mutable state, two bytes per way. LookupAt
// returns a pointer to it, valid until the next mutation.
type State struct {
	Dirty bool
	// IO marks lines written by a PCIe transaction that have not yet
	// been re-classified by a CPU-side fill. The DMA-bloating analysis
	// (Sec. III, Observation 3) depends on tracking when I/O data loses
	// this classification.
	IO bool
}

// Line is a tag-store entry as TakeAt and ForEach report it. Addr is the
// full line address (the tag and index are not split out; the set
// index is derived on lookup).
type Line struct {
	Addr  uint64 // line address (byte address >> 6)
	Valid bool
	Dirty bool
	IO    bool
}

// invalidTag marks an empty way in Cache.tags. Simulated line
// addresses are byte addresses >> 6 and never reach 2^64-1.
const invalidTag = ^uint64(0)

// Victim describes a line displaced by a Fill.
type Victim struct {
	Addr  uint64
	Dirty bool
	IO    bool
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
// Find searches a line's set once. The slot-addressed operations
// (LookupAt, TakeAt, InvalidateAt) are given the way a caller recorded
// earlier and confirm it with one tag compare, without a search; Fill
// needs no search either, picking its victim from the set's valid
// bitmap and the replacement stamps of the allowed ways only, and
// returns the way it filled. A slot is a set and a way; the set always
// follows from the line address, so callers keep only the way.
type Cache struct {
	cfg  Config
	sets int
	// tags holds one word per way, sets*assoc row-major: invalidTag
	// when the way is empty, the line address otherwise. A 16-way
	// set's tags span two host cache lines, and a search reads nothing
	// else.
	tags []uint64
	// state is parallel to tags: each resident line's dirty and I/O
	// flags.
	state []State
	// use is parallel to tags: each way's replacement stamp, the use
	// clock under LRU and the RRPV under SRRIP. Stamps are 32 bits;
	// renumber keeps the clock from wrapping.
	use []uint32
	// valid holds one bitmap per set, bit w set when way w holds a
	// line, so a fill finds a free allowed way without scanning.
	valid    []uint64
	ways     WayMask // FirstN(assoc): the ways a mask can select
	useClock uint32
	occ      int // valid-line count, maintained incrementally
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
	c := &Cache{
		cfg:   cfg,
		sets:  sets,
		state: make([]State, sets*cfg.Assoc),
		tags:  make([]uint64, sets*cfg.Assoc),
		use:   make([]uint32, sets*cfg.Assoc),
		valid: make([]uint64, sets),
		ways:  FirstN(cfg.Assoc),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// NumSets returns the set count.
func (c *Cache) NumSets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.cfg.Assoc }

func (c *Cache) setIndex(lineAddr uint64) int {
	return int(lineAddr & uint64(c.sets-1))
}

// Slot returns the index of way in lineAddr's set among all the
// cache's ways (set*assoc + way), for callers that keep per-slot
// state beside the tag store.
func (c *Cache) Slot(lineAddr uint64, way int) int {
	return c.setIndex(lineAddr)*c.cfg.Assoc + way
}

// Find searches lineAddr's set once and returns the way holding the
// line, or -1. It touches no replacement state.
func (c *Cache) Find(lineAddr uint64) int {
	base := c.setIndex(lineAddr) * c.cfg.Assoc
	tags := c.tags[base : base+c.cfg.Assoc]
	for w := range tags {
		if tags[w] == lineAddr {
			return w
		}
	}
	return -1
}

// at confirms with one tag compare that way of lineAddr's set holds
// the line, returning the set index. A negative way is a miss.
func (c *Cache) at(lineAddr uint64, way int) (si int, ok bool) {
	if way < 0 {
		return 0, false
	}
	si = c.setIndex(lineAddr)
	return si, c.tags[si*c.cfg.Assoc+way] == lineAddr
}

// LookupAt returns the state of lineAddr at way: the way Find returned
// (-1 is a miss), or one the caller recorded when it placed the line.
// A way that no longer holds the line returns nil. When touch is true
// a hit updates replacement state (a snoop or occupancy probe passes
// false). The state is valid until the next mutation.
func (c *Cache) LookupAt(lineAddr uint64, way int, touch bool) *State {
	si, ok := c.at(lineAddr, way)
	if !ok {
		return nil
	}
	if touch {
		c.touch(si, way)
	}
	return &c.state[si*c.cfg.Assoc+way]
}

// TakeAt removes lineAddr from way, with LookupAt's reading of way and
// touch, and returns the entry it held.
func (c *Cache) TakeAt(lineAddr uint64, way int, touch bool) (Line, bool) {
	si, ok := c.at(lineAddr, way)
	if !ok {
		return Line{}, false
	}
	if touch {
		c.touch(si, way)
	}
	st := c.state[si*c.cfg.Assoc+way]
	c.invalidate(si, way)
	return Line{Addr: lineAddr, Valid: true, Dirty: st.Dirty, IO: st.IO}, true
}

// touch updates replacement state on a hit: a use-clock stamp under
// LRU, a promoted RRPV under SRRIP.
func (c *Cache) touch(si, way int) {
	switch c.cfg.Policy {
	case LRU:
		if c.useClock == math.MaxUint32 {
			c.renumber()
		}
		c.useClock++
		c.use[si*c.cfg.Assoc+way] = c.useClock
	case SRRIP:
		c.use[si*c.cfg.Assoc+way] = rrpvPromote
	}
}

// renumber replaces the LRU stamps of the valid ways by their ranks,
// 1 to n in the same order, and restarts the use clock at n. Valid
// ways hold distinct stamps and only valid ways' stamps are ever
// compared, so every later victim choice is what a wider clock would
// have made. It runs once per 2^32 touches.
func (c *Cache) renumber() {
	slots := make([]int, 0, c.occ)
	for si, v := range c.valid {
		for m := v; m != 0; m &= m - 1 {
			slots = append(slots, si*c.cfg.Assoc+bits.TrailingZeros64(m))
		}
	}
	sort.Slice(slots, func(a, b int) bool { return c.use[slots[a]] < c.use[slots[b]] })
	for r, i := range slots {
		c.use[i] = uint32(r + 1)
	}
	c.useClock = uint32(len(slots))
}

// Fill allocates lineAddr, which the caller knows is absent, with the
// given state, victimising only ways allowed by mask: there is no
// presence search, only victim selection. It returns the way it
// filled, which the displaced victim (if any) held. Filling a line
// that is already resident would leave two copies in the set.
func (c *Cache) Fill(lineAddr uint64, dirty, io bool, mask WayMask) (way int, v Victim, evicted bool) {
	si := c.setIndex(lineAddr)
	way = c.victimWay(si, mask)
	i := si*c.cfg.Assoc + way
	evicted = c.valid[si]&(1<<uint(way)) != 0
	if evicted {
		old := c.state[i]
		v = Victim{Addr: c.tags[i], Dirty: old.Dirty, IO: old.IO}
	} else {
		c.occ++
		c.valid[si] |= 1 << uint(way)
	}
	c.state[i] = State{Dirty: dirty, IO: io}
	c.tags[i] = lineAddr
	if c.cfg.Policy == SRRIP {
		c.use[i] = rrpvInsert
	} else {
		c.touch(si, way)
	}
	return way, v, evicted
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
	case SRRIP:
		// The lowest allowed way predicted for distant re-reference; if
		// none is, age every allowed way until the oldest (the lowest
		// of them on a tie) reaches it — the same outcome as aging one
		// step at a time and rescanning.
		first, oldest := -1, uint32(0)
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
		best := -1
		for m := allowed; m != 0; m &= m - 1 {
			if w := bits.TrailingZeros64(m); best < 0 || use[w] < use[best] {
				best = w
			}
		}
		return best
	}
}

// InvalidateAt drops lineAddr from way, returning whether it was there
// and whether it was dirty; a way that does not hold the line (or -1)
// leaves the cache unchanged. No writeback is generated here; the
// caller decides what to do with a dirty line (this is exactly the
// distinction IDIO's invalidate-without-writeback exploits).
func (c *Cache) InvalidateAt(lineAddr uint64, way int) (present, dirty bool) {
	si, ok := c.at(lineAddr, way)
	if !ok {
		return false, false
	}
	dirty = c.state[si*c.cfg.Assoc+way].Dirty
	c.invalidate(si, way)
	return true, dirty
}

// invalidate empties a valid way.
func (c *Cache) invalidate(si, way int) {
	i := si*c.cfg.Assoc + way
	c.state[i] = State{}
	c.tags[i] = invalidTag
	c.valid[si] &^= 1 << uint(way)
	c.occ--
}

// Occupancy returns the number of valid lines in O(1).
func (c *Cache) Occupancy() int { return c.occ }

// LoadFraction returns occupancy as a fraction of capacity.
func (c *Cache) LoadFraction() float64 {
	return float64(c.occ) / float64(len(c.tags))
}

// OccupancyIO returns the number of valid lines still classified as
// I/O data.
func (c *Cache) OccupancyIO() int {
	n := 0
	for i, t := range c.tags {
		if t != invalidTag && c.state[i].IO {
			n++
		}
	}
	return n
}

// ForEach visits every valid line with the way holding it. Mutating
// the cache during iteration is not allowed.
func (c *Cache) ForEach(fn func(way int, ln Line)) {
	for i, t := range c.tags {
		if t != invalidTag {
			st := c.state[i]
			fn(i%c.cfg.Assoc, Line{Addr: t, Valid: true, Dirty: st.Dirty, IO: st.IO})
		}
	}
}
