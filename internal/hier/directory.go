package hier

import (
	"math"
	"sort"
)

// dirEntry is one directory entry: its line, the core whose MLC holds
// it and the MLC way holding it.
type dirEntry struct {
	line  uint64
	owner int
	way   uint8
}

// directory is a set-associative snoop filter. A conflict eviction
// back-invalidates the MLC line its entry named, as in Skylake-SP (and as
// exploited by the directory side-channel literature the paper cites).
//
// Entries are addressed by index (set*assoc + way). Each entry keeps
// the MLC way of its line, so a directory hit leads to the MLC copy
// without searching the MLC; every entry names its line's exact way in
// its owner's MLC (Hierarchy.CheckCoherence enforces it).
type directory struct {
	sets  int
	assoc int
	// tags holds one word per way: dirInvalid when the way is empty,
	// the entry's line address otherwise. owners, ways and use are
	// parallel to it: each entry's owning core, its line's MLC way and
	// its LRU stamp.
	tags   []uint64
	owners []uint16
	ways   []uint8
	use    []uint32
	clock  uint32
}

// dirInvalid marks an empty way in directory.tags (line addresses are
// byte addresses >> 6 and never reach 2^64-1).
const dirInvalid = ^uint64(0)

// maxDirOwners bounds the core count the directory's owner index holds.
const maxDirOwners = math.MaxUint16 + 1

func newDirectory(entries, assoc int) *directory {
	if assoc <= 0 {
		panic("hier: directory assoc must be positive")
	}
	sets := entries / assoc
	if sets <= 0 {
		sets = 1
	}
	// Round set count down to a power of two for cheap indexing.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	n := sets * assoc
	d := &directory{sets: sets, assoc: assoc, tags: make([]uint64, n), owners: make([]uint16, n), ways: make([]uint8, n), use: make([]uint32, n)}
	for i := range d.tags {
		d.tags[i] = dirInvalid
	}
	return d
}

// scan searches line's set and returns the index of its entry, or -1.
// Every entry is reached through a back-pointer; only CheckCoherence
// and tests search.
func (d *directory) scan(line uint64) int {
	base := int(line&uint64(d.sets-1)) * d.assoc
	tags := d.tags[base : base+d.assoc]
	for i := range tags {
		if tags[i] == line {
			return base + i
		}
	}
	return -1
}

// at returns the entry at index e.
func (d *directory) at(e int) dirEntry {
	return dirEntry{line: d.tags[e], owner: int(d.owners[e]), way: d.ways[e]}
}

// ownerAt returns the owning core of the entry at index e.
func (d *directory) ownerAt(e int) int { return int(d.owners[e]) }

// removeAt drops the entry at index e.
func (d *directory) removeAt(e int) { d.tags[e] = dirInvalid }

// tick advances the LRU clock and returns its new value. Before the
// 32-bit clock would wrap, the stamps of the valid entries are
// replaced by their ranks, 1 to n in the same order: valid entries
// hold distinct stamps and only a full set's stamps are ever compared,
// so every later eviction is what a wider clock would have chosen.
func (d *directory) tick() uint32 {
	if d.clock == math.MaxUint32 {
		var valid []int
		for e, t := range d.tags {
			if t != dirInvalid {
				valid = append(valid, e)
			}
		}
		sort.Slice(valid, func(a, b int) bool { return d.use[valid[a]] < d.use[valid[b]] })
		for r, e := range valid {
			d.use[e] = uint32(r + 1)
		}
		d.clock = uint32(len(valid))
	}
	d.clock++
	return d.clock
}

// place records line, which has no entry, as held at way of owner's
// MLC. It takes the set's lowest empty way, or evicts the LRU entry and
// returns it for back-invalidation. It returns the new entry's index.
func (d *directory) place(line uint64, owner int, way uint8) (int, dirEntry, bool) {
	stamp := d.tick()
	base := int(line&uint64(d.sets-1)) * d.assoc
	e := -1
	for i := base; i < base+d.assoc; i++ {
		if d.tags[i] == dirInvalid {
			e = i
			break
		}
	}
	var v dirEntry
	evicted := e < 0
	if evicted {
		// Evict the LRU way, the lowest on a tie.
		e = base
		for i := base + 1; i < base+d.assoc; i++ {
			if d.use[i] < d.use[e] {
				e = i
			}
		}
		v = d.at(e)
	}
	d.tags[e], d.owners[e], d.ways[e], d.use[e] = line, uint16(owner), way, stamp
	return e, v, evicted
}

// entries returns the number of valid directory entries (testing aid).
func (d *directory) entries() int {
	n := 0
	for _, t := range d.tags {
		if t != dirInvalid {
			n++
		}
	}
	return n
}
