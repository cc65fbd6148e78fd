// Package mem defines physical-address and cacheline arithmetic shared
// by every level of the simulated memory hierarchy.
package mem

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// LineAddr identifies one 64-byte cacheline (Addr >> 6).
type LineAddr uint64

// Cacheline geometry. 64-byte lines match every system discussed in the
// paper (Skylake-SP, the gem5 config, and PCIe full-cacheline writes).
const (
	LineBytes   = 64
	LineShift   = 6
	LineMask    = LineBytes - 1
	DescBytes   = 128  // NIC descriptor size (Sec. III, Observation 1)
	MbufBytes   = 2048 // DMA buffer slot: MTU rounded to 2 KB (Sec. IV-A)
	EthernetMTU = 1514
)

// Line returns the cacheline containing a.
func (a Addr) Line() LineAddr { return LineAddr(a >> LineShift) }

// Offset returns the byte offset of a within its cacheline.
func (a Addr) Offset() uint64 { return uint64(a) & LineMask }

// Aligned reports whether a is cacheline-aligned.
func (a Addr) Aligned() bool { return a.Offset() == 0 }

// Addr returns the first byte address of the line.
func (l LineAddr) Addr() Addr { return Addr(l << LineShift) }

func (a Addr) String() string     { return fmt.Sprintf("0x%x", uint64(a)) }
func (l LineAddr) String() string { return fmt.Sprintf("line:0x%x", uint64(l)) }

// LinesCovering returns the number of cachelines needed to hold n bytes
// starting at a (accounting for a possibly unaligned start).
func LinesCovering(a Addr, n int) int {
	if n <= 0 {
		return 0
	}
	first := a.Line()
	last := (a + Addr(n) - 1).Line()
	return int(last-first) + 1
}

// Region is a contiguous physical range [Base, Base+Size).
type Region struct {
	Base Addr
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// ContainsLine reports whether the region fully contains line l.
func (r Region) ContainsLine(l LineAddr) bool {
	return r.Contains(l.Addr()) && r.Contains(l.Addr()+LineBytes-1)
}

// Lines iterates over the region's cachelines, calling fn for each.
func (r Region) Lines(fn func(LineAddr)) {
	if r.Size == 0 {
		return
	}
	for l := r.Base.Line(); l <= (r.End() - 1).Line(); l++ {
		fn(l)
	}
}

// NumLines returns the number of cachelines touched by the region.
func (r Region) NumLines() int { return LinesCovering(r.Base, int(r.Size)) }

// LineSpan returns the smallest line-aligned region covering r: every
// cacheline r touches, whole. An empty region spans nothing.
func (r Region) LineSpan() Region {
	if r.Size == 0 {
		return Region{Base: r.Base}
	}
	base := r.Base &^ LineMask
	return Region{Base: base, Size: uint64(alignUp(r.End(), LineBytes) - base)}
}

// RegionSet is a set of physical addresses stored as sorted, disjoint,
// non-adjacent regions. Adding a region merges it with every region it
// overlaps or abuts, so a set built from a ring's thousands of
// back-to-back buffers collapses to a handful of regions, and a lookup
// is a binary search that inspects a single candidate. The zero value
// is an empty set.
type RegionSet struct {
	regions []Region
}

// Add inserts r into the set; adding an empty region is a no-op and
// adding an already-covered one changes nothing.
func (s *RegionSet) Add(r Region) {
	if r.Size == 0 {
		return
	}
	lo, hi := r.Base, r.End()
	// A region at or past the last one's start, the usual case when a
	// ring registers its buffers in address order, extends or follows
	// it.
	if n := len(s.regions); n > 0 && lo >= s.regions[n-1].Base {
		if last := &s.regions[n-1]; lo <= last.End() {
			last.Size = uint64(max(hi, last.End()) - last.Base)
		} else {
			s.regions = append(s.regions, r)
		}
		return
	}
	// Regions from i on are the ones r can overlap or abut: the last
	// region starting at or before lo, if it reaches lo, and every
	// later region starting at or before hi.
	i := s.upper(lo)
	if i > 0 && s.regions[i-1].End() >= lo {
		i--
	}
	j := i
	for ; j < len(s.regions) && s.regions[j].Base <= hi; j++ {
		lo = min(lo, s.regions[j].Base)
		hi = max(hi, s.regions[j].End())
	}
	merged := Region{Base: lo, Size: uint64(hi - lo)}
	if i == j {
		s.regions = append(s.regions, Region{})
		copy(s.regions[i+1:], s.regions[i:])
	} else {
		s.regions = append(s.regions[:i+1], s.regions[j:]...)
	}
	s.regions[i] = merged
}

// Contains reports whether a lies inside the set.
func (s *RegionSet) Contains(a Addr) bool {
	// The only candidate is the last region starting at or before a.
	i := s.upper(a)
	return i > 0 && a < s.regions[i-1].End()
}

// Covers reports whether every address of r lies inside the set; an
// empty region is covered. Regions are kept apart, so r is covered
// only when one of them holds it whole.
func (s *RegionSet) Covers(r Region) bool {
	if r.Size == 0 {
		return true
	}
	i := s.upper(r.Base)
	return i > 0 && r.End() <= s.regions[i-1].End()
}

// Len returns the number of disjoint regions the set holds.
func (s *RegionSet) Len() int { return len(s.regions) }

// upper returns the index of the first region starting after a.
func (s *RegionSet) upper(a Addr) int {
	lo, hi := 0, len(s.regions)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.regions[m].Base > a {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Layout hands out non-overlapping, naturally aligned physical regions.
// It is how the system places descriptor rings, mbuf pools and
// application heaps without collisions.
type Layout struct {
	base, next Addr
}

// NewLayout starts allocation at base (rounded up to a line boundary).
func NewLayout(base Addr) *Layout {
	b := alignUp(base, LineBytes)
	return &Layout{base: b, next: b}
}

// Span returns the region from the layout's base to the end of its
// last allocation: every region it has handed out lies inside.
func (ly *Layout) Span() Region { return Region{Base: ly.base, Size: uint64(ly.next - ly.base)} }

// Alloc reserves size bytes aligned to align (power of two, >= 64) and
// returns the region.
func (ly *Layout) Alloc(size uint64, align uint64) Region {
	if align < LineBytes {
		align = LineBytes
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d not a power of two", align))
	}
	base := alignUp(ly.next, Addr(align))
	ly.next = base + Addr(size)
	return Region{Base: base, Size: size}
}

func alignUp(a Addr, align Addr) Addr {
	return (a + align - 1) &^ (align - 1)
}
