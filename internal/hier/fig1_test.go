package hier

// Spec-level tests that walk the DDIO ingress and egress flows of the
// paper's Fig. 1 case by case. Each P-case places a line in one of the
// five locations the figure distinguishes and checks the transition
// the figure prescribes:
//
//	P1 — exclusively in an MLC
//	P2 — in MLC and LLC (cannot arise under this model's move-on-hit
//	     exclusivity; the in-place-update path is covered via P3)
//	P3 — exclusively in non-DDIO LLC ways
//	P4 — exclusively in DDIO LLC ways
//	P5 — not cached

import (
	"testing"

	"idio/internal/mem"
)

// placeP1 puts the line exclusively in core 0's MLC (dirty).
func placeP1(h *Hierarchy, l mem.LineAddr) {
	h.CoreWrite(0, 0, l)
	if h.LLCOccupancy() != 0 {
		panic("P1 setup leaked into LLC")
	}
}

// placeP3 puts the line exclusively in a non-DDIO LLC way: write it
// from the core, then evict it from the MLC by filling the set.
func placeP3(h *Hierarchy, l mem.LineAddr) {
	h.CoreWrite(0, 0, l)
	// MLC in small(): 4KB, 4-way, 16 sets. Fill l's set with 4 more
	// conflicting lines (stride = number of sets).
	for i := mem.LineAddr(1); i <= 4; i++ {
		h.CoreRead(0, 0, l+i*16)
	}
	if h.mlc[0].Find(uint64(l)) >= 0 {
		panic("P3 setup: line still in MLC")
	}
	if h.llc.Find(uint64(l)) < 0 {
		panic("P3 setup: line not in LLC")
	}
}

// placeP4 puts the line exclusively in a DDIO LLC way via a PCIe
// write.
func placeP4(h *Hierarchy, l mem.LineAddr) {
	h.PCIeWrite(0, l)
}

func TestFig1IngressP1InvalidateThenAllocate(t *testing.T) {
	h := small(t)
	placeP1(h, 5)
	h.PCIeWrite(0, 5)
	// P1-1: MLC copy invalidated without writeback; P1-2: allocated in
	// DDIO ways.
	st := h.Stats()
	if st.MLCInval != 1 {
		t.Fatalf("P1-1 invalidation missing: %+v", st)
	}
	if st.MLCWriteback != 0 {
		t.Fatalf("invalidation must not write back: %+v", st)
	}
	if st.DDIOAlloc != 1 {
		t.Fatalf("P1-2 DDIO allocation missing: %+v", st)
	}
	if h.LLCOccupancyIO() != 1 || h.MLCOccupancy(0) != 0 {
		t.Fatal("line must now live in DDIO ways only")
	}
}

func TestFig1IngressP3InPlaceUpdate(t *testing.T) {
	h := small(t)
	placeP3(h, 5)
	ddioAllocsBefore := h.Stats().DDIOAlloc
	h.PCIeWrite(0, 5)
	st := h.Stats()
	// P3-1: updated in place — no new DDIO allocation, no eviction.
	if st.DDIOUpdate != 1 {
		t.Fatalf("P3-1 in-place update missing: %+v", st)
	}
	if st.DDIOAlloc != ddioAllocsBefore {
		t.Fatalf("in-place update must not allocate: %+v", st)
	}
	// The line is re-classified as I/O data.
	if ln := state(h.llc, 5); ln == nil || !ln.IO || !ln.Dirty {
		t.Fatalf("updated line state wrong: %+v", ln)
	}
}

func TestFig1IngressP4InPlaceUpdate(t *testing.T) {
	h := small(t)
	placeP4(h, 5)
	h.PCIeWrite(0, 5)
	st := h.Stats()
	if st.DDIOAlloc != 1 || st.DDIOUpdate != 1 {
		t.Fatalf("P4 reuse must update in place: %+v", st)
	}
}

func TestFig1IngressP5WriteAllocate(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 99)
	st := h.Stats()
	if st.DDIOAlloc != 1 || st.MLCInval != 0 || st.DDIOUpdate != 0 {
		t.Fatalf("P5-1 write-allocate: %+v", st)
	}
}

func TestFig1EgressP1WritebackToLLCThenServe(t *testing.T) {
	h := small(t)
	placeP1(h, 7)
	dramReadsAfterSetup := h.DRAM().Reads() // setup cold-missed once
	lat := h.PCIeRead(0, 7)
	// P1-1: dirty MLC line written back to LLC, served from there.
	if h.mlc[0].Find(7) >= 0 {
		t.Fatal("egress must remove the MLC copy")
	}
	if h.llc.Find(7) < 0 {
		t.Fatal("egress must leave the line in LLC")
	}
	if h.Stats().MLCWriteback != 1 {
		t.Fatalf("P1-1 writeback missing: %+v", h.Stats())
	}
	if lat <= h.llcLat {
		t.Fatalf("egress from MLC latency %v must exceed LLC hit", lat)
	}
	if h.DRAM().Reads() != dramReadsAfterSetup {
		t.Fatal("on-chip egress must not read DRAM")
	}
}

func TestFig1EgressP3P4ServedFromLLC(t *testing.T) {
	for _, place := range []struct {
		name string
		fn   func(*Hierarchy, mem.LineAddr)
	}{{"P3", placeP3}, {"P4", placeP4}} {
		h := small(t)
		place.fn(h, 7)
		r := h.DRAM().Reads()
		lat := h.PCIeRead(0, 7)
		if lat != h.llcLat {
			t.Fatalf("%s egress latency %v, want LLC hit %v", place.name, lat, h.llcLat)
		}
		if h.DRAM().Reads() != r {
			t.Fatalf("%s egress must not read DRAM", place.name)
		}
		// Egress reads do not deallocate the LLC copy.
		if h.llc.Find(7) < 0 {
			t.Fatalf("%s egress removed the LLC copy", place.name)
		}
	}
}

func TestFig1EgressP5FromDRAM(t *testing.T) {
	h := small(t)
	lat := h.PCIeRead(0, 42)
	if h.DRAM().Reads() != 1 {
		t.Fatal("uncached egress must read DRAM")
	}
	if lat <= h.llcLat {
		t.Fatalf("uncached egress latency %v too low", lat)
	}
	// Conventional DMA read: no allocation anywhere on chip.
	if h.LLCOccupancy() != 0 || h.MLCOccupancy(0) != 0 {
		t.Fatal("egress DRAM read must not allocate on chip")
	}
}
