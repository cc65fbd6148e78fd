package hier

import "idio/internal/mem"

// placement keeps a record of where each line of the Invalidatable
// regions sits: the LLC way or the core and MLC way of its last fill,
// two bytes per line. These are the I/O buffers, so the NIC places each
// line, a core then prefetches, reads and self-invalidates it, and the
// NIC overwrites it again; each of those steps reads the record
// instead of searching (Hierarchy.locate).
//
// Every fill of the LLC or an MLC writes its line's record, so a line
// on chip is always where its record says; the slot is confirmed with
// one tag compare, and a slot that no longer holds the line means the
// line has left the chip. A record of 0 (none yet, or a core past 253)
// sends the caller to search. CheckCoherence checks that every line on
// chip with a record is where the record says.
//
// Records live in pages of recordPage lines, allocated when a region is
// registered (so none is allocated while a simulation runs) and found
// by page number from a dense table. Lines of a page outside every
// region get records too. A region so far from the others that the
// table would pass maxRecordPages keeps no records.
type placement struct {
	base  uint64 // page number of pages[0]
	pages []*[recordPage]uint16
}

const (
	recordPageBits = 12
	recordPage     = 1 << recordPageBits
	maxRecordPages = 1 << 16 // a 512 KiB table spanning 16 GiB of lines
)

// A record is loc<<8 | way; loc 0 means no record.
const (
	locLLC  = 1
	locMLC0 = 2 // core c's MLC is locMLC0 + c
)

// add allocates the record pages covering region r.
func (p *placement) add(r mem.Region) {
	if r.Size == 0 {
		return
	}
	first := uint64(r.Base.Line()) >> recordPageBits
	last := uint64(r.Base.Line()+mem.LineAddr(r.NumLines())-1) >> recordPageBits
	if len(p.pages) == 0 {
		p.base = first
	}
	end := p.base + uint64(len(p.pages))
	if max(last+1, end)-min(first, p.base) > maxRecordPages {
		return
	}
	if first < p.base {
		pages := make([]*[recordPage]uint16, end-first)
		copy(pages[p.base-first:], p.pages)
		p.base, p.pages = first, pages
	}
	for last >= p.base+uint64(len(p.pages)) {
		p.pages = append(p.pages, nil)
	}
	for i := first - p.base; i <= last-p.base; i++ {
		if p.pages[i] == nil {
			p.pages[i] = new([recordPage]uint16)
		}
	}
}

// record returns line's record, or nil when the line has no page.
func (p *placement) record(line uint64) *uint16 {
	i := line>>recordPageBits - p.base
	if i >= uint64(len(p.pages)) {
		return nil
	}
	if pg := p.pages[i]; pg != nil {
		return &pg[line&(recordPage-1)]
	}
	return nil
}

// note writes into record r that its line now sits at way of location
// loc. A location a record cannot encode (a core past 253) clears it.
func note(r *uint16, loc, way int) {
	if loc > 0xFF {
		loc = 0
	}
	*r = uint16(loc<<8 | way)
}
