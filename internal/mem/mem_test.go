package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLineArithmetic(t *testing.T) {
	a := Addr(0x1234)
	if a.Line() != LineAddr(0x48) {
		t.Fatalf("line = %v", a.Line())
	}
	if a.Offset() != 0x34 {
		t.Fatalf("offset = %d", a.Offset())
	}
	if a.Aligned() {
		t.Fatal("0x1234 is not aligned")
	}
	if !Addr(0x1240).Aligned() {
		t.Fatal("0x1240 is aligned")
	}
	if LineAddr(0x48).Addr() != 0x1200 {
		t.Fatalf("line addr = %v", LineAddr(0x48).Addr())
	}
}

func TestLinesCovering(t *testing.T) {
	cases := []struct {
		a    Addr
		n    int
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 1},
		{0, 65, 2},
		{63, 2, 2},
		{0, 1514, 24},  // MTU packet, aligned
		{32, 1514, 25}, // MTU packet, misaligned
		{0, 2048, 32},  // full mbuf
	}
	for _, c := range cases {
		if got := LinesCovering(c.a, c.n); got != c.want {
			t.Errorf("LinesCovering(%v,%d) = %d, want %d", c.a, c.n, got, c.want)
		}
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: 0x1000, Size: 0x100}
	if !r.Contains(0x1000) || !r.Contains(0x10ff) {
		t.Fatal("region must contain endpoints")
	}
	if r.Contains(0xfff) || r.Contains(0x1100) {
		t.Fatal("region must exclude outside")
	}
	if r.End() != 0x1100 {
		t.Fatalf("end = %v", r.End())
	}
}

func TestRegionLines(t *testing.T) {
	r := Region{Base: 0x1000, Size: 130}
	var lines []LineAddr
	r.Lines(func(l LineAddr) { lines = append(lines, l) })
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	if lines[0] != Addr(0x1000).Line() || lines[2] != Addr(0x1081).Line() {
		t.Fatalf("wrong lines: %v", lines)
	}
	if r.NumLines() != 3 {
		t.Fatalf("NumLines = %d", r.NumLines())
	}
	empty := Region{Base: 0x1000, Size: 0}
	empty.Lines(func(LineAddr) { t.Fatal("empty region should have no lines") })
}

func TestLayoutNonOverlapping(t *testing.T) {
	ly := NewLayout(0x1000)
	a := ly.Alloc(100, 64)
	b := ly.Alloc(2048, 2048)
	c := ly.Alloc(64, 64)
	regs := []Region{a, b, c}
	for i := range regs {
		if regs[i].Base%64 != 0 {
			t.Errorf("region %d base %v not line aligned", i, regs[i].Base)
		}
		for j := i + 1; j < len(regs); j++ {
			if regs[i].Base < regs[j].End() && regs[j].Base < regs[i].End() {
				t.Errorf("regions %d and %d overlap", i, j)
			}
		}
	}
	if b.Base%2048 != 0 {
		t.Errorf("2KB-aligned alloc at %v", b.Base)
	}
}

func TestLayoutBadAlignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-power-of-two alignment")
		}
	}()
	NewLayout(0).Alloc(1, 96)
}

// Property: every address in an allocated region maps to a line the
// region reports via Lines.
func TestQuickRegionLineConsistency(t *testing.T) {
	f := func(base uint32, size uint16) bool {
		r := Region{Base: Addr(base), Size: uint64(size)}
		seen := map[LineAddr]bool{}
		r.Lines(func(l LineAddr) { seen[l] = true })
		if len(seen) != r.NumLines() {
			return false
		}
		for off := uint64(0); off < uint64(size); off += 17 {
			if !seen[(r.Base + Addr(off)).Line()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomRegions draws regions that land adjacent to, overlapping, or
// out of order with the previous one, with unaligned bases and sizes
// (including empty ones), inside the first 256 lines.
func randomRegions(rng *rand.Rand) []Region {
	var rs []Region
	prev := Region{}
	for i := rng.Intn(24); i > 0; i-- {
		r := Region{Base: Addr(rng.Intn(256 * LineBytes)), Size: uint64(rng.Intn(8 * LineBytes))}
		switch rng.Intn(4) {
		case 0:
			r.Base = prev.End()
		case 1:
			r.Base = prev.Base + Addr(rng.Int63n(int64(prev.Size)+1))
		}
		rs = append(rs, r)
		prev = r
	}
	return rs
}

func TestRegionSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		var s RegionSet
		rs := randomRegions(rng)
		for _, r := range rs {
			s.Add(r)
		}
		got := s.regions
		for i := 1; i < len(got); i++ {
			if got[i-1].End() >= got[i].Base {
				t.Fatalf("regions %v and %v are not sorted, disjoint and apart", got[i-1], got[i])
			}
		}
		for _, g := range got {
			if g.Size == 0 {
				t.Fatalf("empty region %v kept", g)
			}
		}
		for a := Addr(0); a < 266*LineBytes; a++ {
			want := false
			for _, r := range rs {
				want = want || r.Contains(a)
			}
			if s.Contains(a) != want {
				t.Fatalf("iter %d: Contains(%v) = %v, want %v (regions %v)", iter, a, !want, want, rs)
			}
		}
		// Covers agrees with Contains on every address of a random
		// region, empty ones included.
		for k := 0; k < 20; k++ {
			r := Region{Base: Addr(rng.Intn(266 * LineBytes)), Size: uint64(rng.Intn(16 * LineBytes))}
			want := true
			for a := r.Base; a < r.End(); a++ {
				want = want && s.Contains(a)
			}
			if s.Covers(r) != want {
				t.Fatalf("iter %d: Covers(%v) = %v, want %v (regions %v)", iter, r, !want, want, rs)
			}
		}
	}
}

func TestLineSpan(t *testing.T) {
	cases := []struct{ in, want Region }{
		{Region{Base: 0, Size: 64}, Region{Base: 0, Size: 64}},
		{Region{Base: 10, Size: 1}, Region{Base: 0, Size: 64}},
		{Region{Base: 63, Size: 2}, Region{Base: 0, Size: 128}},
		{Region{Base: 64, Size: 1514}, Region{Base: 64, Size: 24 * 64}},
		{Region{Base: 100, Size: 0}, Region{Base: 100}},
	}
	for _, c := range cases {
		if got := c.in.LineSpan(); got != c.want {
			t.Errorf("LineSpan(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}
