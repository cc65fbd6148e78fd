package hier

import "idio/internal/mem"

// placement keeps a record of where each line sits: the slot of its
// last fill, an LLC way or a core and MLC way. Every fill of the LLC or
// an MLC writes its line's record, so a line on chip is always where
// its record says; the slot is confirmed with one tag compare, and a
// slot that no longer holds the line means the line has left the chip
// (Hierarchy.locate). A record never written reads as off chip. Under
// NINE an LLC hit keeps a clean copy behind the MLC copy it fills; its
// record then names both slots (noteRetained). CheckCoherence checks
// that every line on chip is where its record says.
//
// Records live in pages of recordLines lines, allocated when a record is
// first written; reading allocates nothing. Most pages sit in one dense
// table indexed by page number; a page too far from it to join it
// (past maxRecordPages) goes to a map. A System allocates the pages of
// its whole address layout at start (Hierarchy.ReserveRecords), so a
// run allocates none.
type placement struct {
	base  uint64 // page number of pages[0]
	pages []*recordPage
	far   map[uint64]*recordPage
}

const (
	recordPageBits = 12
	recordLines    = 1 << recordPageBits
	maxRecordPages = 1 << 16 // a 512 KiB table spanning 16 GiB of lines
)

type recordPage [recordLines]uint32

// A record is core<<16 | (mlcWay+1)<<8 | (llcWay+1): a way field of 0
// means the record names no slot at that level. Cores fit the
// directory's 16-bit owner index and ways the tag store's 64.
const (
	wayBits = 8
	wayMask = 1<<wayBits - 1
)

func (p *placement) page(pg uint64) *recordPage {
	if i := pg - p.base; i < uint64(len(p.pages)) {
		return p.pages[i]
	}
	return p.far[pg]
}

// at returns the slots line's record names: an LLC way, and a core and
// MLC way. A way is -1 where the record names none.
func (p *placement) at(line uint64) (llc, core, mlc int) {
	var r uint32
	if pg := p.page(line >> recordPageBits); pg != nil {
		r = pg[line&(recordLines-1)]
	}
	return int(r&wayMask) - 1, int(r >> (2 * wayBits)), int(r>>wayBits&wayMask) - 1
}

// noteLLC records that line now sits at way of the LLC.
func (p *placement) noteLLC(line uint64, way int) {
	*p.set(line) = uint32(way + 1)
}

// noteMLC records that line now sits at way of core's MLC.
func (p *placement) noteMLC(line uint64, core, way int) {
	*p.set(line) = uint32(core)<<(2*wayBits) | uint32(way+1)<<wayBits
}

// noteRetained records that line, just filled into an MLC, also stays
// at way of the LLC.
func (p *placement) noteRetained(line uint64, way int) {
	r := p.set(line)
	*r = *r&^wayMask | uint32(way+1)
}

// set returns line's record for writing, allocating its page if need
// be.
func (p *placement) set(line uint64) *uint32 {
	pg := p.page(line >> recordPageBits)
	if pg == nil {
		pg = p.alloc(line >> recordPageBits)
	}
	return &pg[line&(recordLines-1)]
}

// alloc allocates page pg.
func (p *placement) alloc(pg uint64) *recordPage {
	page := new(recordPage)
	if p.cover(pg, pg+1) {
		p.pages[pg-p.base] = page
		return page
	}
	if p.far == nil {
		p.far = make(map[uint64]*recordPage)
	}
	p.far[pg] = page
	return page
}

// cover widens the dense table to hold pages lo to hi-1, unless that
// would pass maxRecordPages, and reports whether it holds them.
func (p *placement) cover(lo, hi uint64) bool {
	if len(p.pages) == 0 {
		p.base = lo
	}
	end := p.base + uint64(len(p.pages))
	lo, hi = min(lo, p.base), max(hi, end)
	if hi-lo > maxRecordPages {
		return false
	}
	if lo < p.base || hi > end {
		pages := make([]*recordPage, hi-lo)
		copy(pages[p.base-lo:], p.pages)
		for n, fp := range p.far {
			if n >= lo && n < hi {
				pages[n-lo] = fp
				delete(p.far, n)
			}
		}
		p.base, p.pages = lo, pages
	}
	return true
}

// reserve allocates the record pages covering region r.
func (p *placement) reserve(r mem.Region) {
	if r.Size == 0 {
		return
	}
	first := uint64(r.Base.Line())
	lo, hi := first>>recordPageBits, (first+uint64(r.NumLines())-1)>>recordPageBits+1
	p.cover(lo, hi)
	for pg := lo; pg < hi; pg++ {
		if p.page(pg) == nil {
			p.alloc(pg)
		}
	}
}
