package pcie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"idio/internal/mem"
)

func TestIOMMUEmptyFaultsEverything(t *testing.T) {
	u := NewIOMMU()
	if u.Allowed(0) || u.Allowed(12345) {
		t.Fatal("empty IOMMU must reject all")
	}
	if u.CheckWrite(1) || u.CheckRead(2) {
		t.Fatal("checks must fail")
	}
	if u.WriteFaults != 1 || u.ReadFaults != 1 {
		t.Fatalf("faults w=%d r=%d", u.WriteFaults, u.ReadFaults)
	}
}

func TestIOMMUMappedRegionsAllowed(t *testing.T) {
	u := NewIOMMU()
	u.Map(mem.Region{Base: 0x1000, Size: 0x1000})
	u.Map(mem.Region{Base: 0x10000, Size: 2048})
	cases := []struct {
		line uint64
		want bool
	}{
		{0x1000 >> 6, true},
		{(0x1000 + 0xFC0) >> 6, true}, // last line of first region
		{0x2000 >> 6, false},          // first byte past it
		{0x10000 >> 6, true},
		{(0x10000 + 2048) >> 6, false},
		{0, false},
	}
	for _, c := range cases {
		if got := u.Allowed(c.line); got != c.want {
			t.Errorf("line %#x allowed=%v, want %v", c.line, got, c.want)
		}
	}
	if u.Mapped() != 2 {
		t.Fatalf("mapped %d", u.Mapped())
	}
	// Zero-size maps are ignored.
	u.Map(mem.Region{Base: 0x99, Size: 0})
	if u.Mapped() != 2 {
		t.Fatal("zero-size region must be ignored")
	}
}

func TestIOMMUCoalescesOverlaps(t *testing.T) {
	u := NewIOMMU()
	u.Map(mem.Region{Base: 0x1000, Size: 0x100})
	u.Map(mem.Region{Base: 0x1080, Size: 0x200}) // overlaps first
	u.Map(mem.Region{Base: 0x1280, Size: 0x80})  // adjacent to merged end
	if u.Mapped() != 1 {
		t.Fatalf("overlapping maps must coalesce: %d regions", u.Mapped())
	}
	// Every byte of the union is allowed; the byte past it is not.
	for a := uint64(0x1000); a < 0x1300; a += 64 {
		if !u.Allowed(a >> 6) {
			t.Fatalf("line %#x must be allowed", a)
		}
	}
	if u.Allowed(0x1300 >> 6) {
		t.Fatal("line past the union must fault")
	}
	// A deep stack of small regions inside a large one must not
	// confuse the lookup.
	u2 := NewIOMMU()
	u2.Map(mem.Region{Base: 0, Size: 0x10000})
	for i := 0; i < 16; i++ {
		u2.Map(mem.Region{Base: mem.Addr(0x100 + i*0x40), Size: 0x40})
	}
	if !u2.Allowed(0x8000 >> 6) {
		t.Fatal("address inside the big region must be allowed")
	}
}

// Property: a line is Allowed iff its first byte lies in some mapped
// region (brute force cross-check), for arbitrary region sets.
func TestQuickIOMMUMatchesBruteForce(t *testing.T) {
	f := func(bases []uint16, probe uint16) bool {
		u := NewIOMMU()
		var regs []mem.Region
		for _, b := range bases {
			r := mem.Region{Base: mem.Addr(b) * 64, Size: uint64(b%7+1) * 64}
			u.Map(r)
			regs = append(regs, r)
		}
		line := uint64(probe)
		want := false
		for _, r := range regs {
			if r.Contains(mem.LineAddr(line).Addr()) {
				want = true
			}
		}
		return u.Allowed(line) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIOMMUMatchesPerLineSet checks the region-set mappings against a
// per-line reference — a line is allowed iff its first byte lies in a
// mapped region — for random adjacent, overlapping and out-of-order
// regions with unaligned edges.
func TestIOMMUMatchesPerLineSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		u := NewIOMMU()
		ref := make(map[uint64]bool)
		prev := mem.Region{}
		for i := rng.Intn(24); i > 0; i-- {
			r := mem.Region{Base: mem.Addr(rng.Intn(256 * mem.LineBytes)), Size: uint64(rng.Intn(8 * mem.LineBytes))}
			switch rng.Intn(4) {
			case 0:
				r.Base = prev.End()
			case 1:
				r.Base = prev.Base + mem.Addr(rng.Int63n(int64(prev.Size)+1))
			}
			u.Map(r)
			r.Lines(func(l mem.LineAddr) { ref[uint64(l)] = r.Contains(l.Addr()) || ref[uint64(l)] })
			prev = r
		}
		for l := uint64(0); l < 266; l++ {
			if got := u.Allowed(l); got != ref[l] {
				t.Fatalf("iter %d: line %d allowed=%v, per-line set says %v", iter, l, got, ref[l])
			}
		}
	}
}
