package hier

import (
	"fmt"

	"idio/internal/cache"
)

// CheckCoherence returns an error naming the first coherence or
// back-pointer invariant the hierarchy breaks, or nil. The searches
// the hierarchy skips (DESIGN.md, "Implied probes" and "Carried
// placement") are exact only while these hold:
//
//   - every MLC line's directory pointer names an entry for that line
//     and core, and that entry names the line's way, so every MLC line
//     has a directory entry naming its core;
//   - no line has two directory entries, so with the above no line is
//     in two MLCs;
//   - every directory entry names its line's way in its owner's MLC;
//   - every L1 line's MLC pointer names its way in the core's MLC, and
//     that MLC line's L1 pointer names it back (so L1 ⊆ MLC), and every
//     MLC line's L1 pointer, if set, names an L1 way holding the line;
//   - with exclusive semantics no line is in an MLC and the LLC;
//   - every line on chip has a placement record naming its slot.
//
// It walks every structure. Tests call it after every operation; it is
// not meant for a hot path.
func (h *Hierarchy) CheckCoherence() error {
	d := h.dir
	for e, line := range d.tags {
		if line == dirInvalid {
			continue
		}
		if f := d.scan(line); f != e {
			return fmt.Errorf("line %d has directory entries %d and %d", line, f, e)
		}
		ent := d.at(e)
		if ent.owner >= len(h.mlc) || int(ent.way) >= h.mlc[ent.owner].Assoc() || h.mlc[ent.owner].LookupAt(line, int(ent.way), false) == nil {
			return fmt.Errorf("directory entry %d names line %d at way %d of MLC %d, which does not hold it", e, line, ent.way, ent.owner)
		}
	}
	for c := range h.mlc {
		if err := h.checkCore(c); err != nil {
			return err
		}
	}
	var err error
	h.llc.ForEach(func(way int, ln cache.Line) {
		if err == nil {
			err = h.checkRecord(ln.Addr, -1, way)
		}
	})
	return err
}

// checkRecord checks that la, held at way of the LLC (core < 0) or of
// core's MLC, has a placement record naming that slot.
func (h *Hierarchy) checkRecord(la uint64, core, way int) error {
	llc, rc, mlc := h.placed.at(la)
	switch {
	case core < 0 && llc != way:
		return fmt.Errorf("line %d at way %d of the LLC, its placement record says LLC way %d", la, way, llc)
	case core >= 0 && (mlc != way || rc != core):
		return fmt.Errorf("line %d at way %d of MLC %d, its placement record says way %d of MLC %d", la, way, core, mlc, rc)
	}
	return nil
}

// checkCore checks core c's MLC and L1 lines against their pointers.
func (h *Hierarchy) checkCore(c int) error {
	mlc, l1, d := h.mlc[c], h.l1[c], h.dir
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	mlc.ForEach(func(way int, ln cache.Line) {
		s := mlc.Slot(ln.Addr, way)
		e := int(h.mlcDir[c][s])
		switch {
		case e < 0 || e >= len(d.tags) || d.tags[e] != ln.Addr:
			fail("line %d in MLC %d has no directory entry at its pointer %d", ln.Addr, c, e)
		case d.ownerAt(e) != c:
			fail("line %d in MLC %d, the directory names core %d", ln.Addr, c, d.ownerAt(e))
		case int(d.ways[e]) != way:
			fail("line %d in way %d of MLC %d, its directory entry names way %d", ln.Addr, way, c, d.ways[e])
		}
		if w := h.mlcL1[c][s]; w != noWay {
			if int(w) >= l1.Assoc() || l1.LookupAt(ln.Addr, int(w), false) == nil {
				fail("line %d in MLC %d points at L1 way %d, which does not hold it", ln.Addr, c, w)
			}
		}
		if e := h.checkRecord(ln.Addr, c, way); e != nil {
			fail("%v", e)
		}
		if !h.cfg.RetainLLCOnHit {
			for w := 0; w < h.llc.Assoc(); w++ {
				if h.llc.LookupAt(ln.Addr, w, false) != nil {
					fail("line %d valid in both MLC %d and the LLC", ln.Addr, c)
				}
			}
		}
	})
	l1.ForEach(func(way int, ln cache.Line) {
		mw := int(h.l1MLC[c][l1.Slot(ln.Addr, way)])
		switch {
		case mw >= mlc.Assoc() || mlc.LookupAt(ln.Addr, mw, false) == nil:
			fail("core %d's L1 holds line %d, absent from way %d of its MLC", c, ln.Addr, mw)
		case int(h.mlcL1[c][mlc.Slot(ln.Addr, mw)]) != way:
			fail("line %d in L1 way %d of core %d, its MLC copy points at L1 way %d", ln.Addr, way, c, h.mlcL1[c][mlc.Slot(ln.Addr, mw)])
		}
	})
	return err
}
