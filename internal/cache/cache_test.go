package cache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mk(t *testing.T, size, assoc int, p Policy) *Cache {
	t.Helper()
	return New(Config{Name: "t", SizeBytes: size, Assoc: assoc, Policy: p})
}

func TestWayMaskHelpers(t *testing.T) {
	if FirstN(2) != 0b11 {
		t.Fatalf("FirstN(2) = %b", FirstN(2))
	}
	if FirstN(0) != 0 {
		t.Fatal("FirstN(0) must be empty")
	}
	if FirstN(64) != AllWays || FirstN(100) != AllWays {
		t.Fatal("FirstN saturates at 64")
	}
	if ExceptFirstN(2)&0b11 != 0 {
		t.Fatal("ExceptFirstN(2) must exclude first two ways")
	}
	if FirstN(3).Count() != 3 {
		t.Fatalf("count = %d", FirstN(3).Count())
	}
}

func TestGeometryValidation(t *testing.T) {
	cases := []Config{
		{SizeBytes: 0, Assoc: 4},
		{SizeBytes: 4096, Assoc: 0},
		{SizeBytes: 4096, Assoc: 65},
		{SizeBytes: 64 * 3, Assoc: 2},  // lines not divisible by assoc
		{SizeBytes: 64 * 12, Assoc: 4}, // 3 sets, not power of two
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic for %+v", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestBasicInsertLookup(t *testing.T) {
	c := mk(t, 64*8, 4, LRU) // 2 sets, 4 ways
	if c.NumSets() != 2 || c.Assoc() != 4 {
		t.Fatalf("geometry %d sets %d ways", c.NumSets(), c.Assoc())
	}
	if c.Lookup(10, true) != nil {
		t.Fatal("empty cache should miss")
	}
	_, ev := c.Insert(10, true, false, AllWays)
	if ev {
		t.Fatal("insert into empty set should not evict")
	}
	ln := c.Lookup(10, true)
	if ln == nil || !ln.Dirty || ln.IO {
		t.Fatalf("lookup after insert: %+v", ln)
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", c.Occupancy())
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := mk(t, 64*8, 4, LRU)
	c.Insert(10, false, true, FirstN(2))
	// Re-insert as clean CPU data: dirty stays false, IO is cleared.
	_, ev := c.Insert(10, false, false, AllWays)
	if ev {
		t.Fatal("in-place update must not evict")
	}
	ln := c.Lookup(10, false)
	if ln.Dirty || ln.IO {
		t.Fatalf("update in place: %+v", ln)
	}
	// Dirty bit ORs in.
	c.Insert(10, true, false, AllWays)
	if !c.Lookup(10, false).Dirty {
		t.Fatal("dirty must OR in")
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", c.Occupancy())
	}
}

func TestLRUEviction(t *testing.T) {
	c := mk(t, 64*4, 4, LRU) // 1 set, 4 ways
	for i := uint64(0); i < 4; i++ {
		c.Insert(i, false, false, AllWays)
	}
	c.Lookup(0, true) // make 0 most recent; LRU is now 1
	v, ev := c.Insert(100, false, false, AllWays)
	if !ev || v.Addr != 1 {
		t.Fatalf("victim %+v (ev=%v), want line 1", v, ev)
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := mk(t, 64*2, 2, LRU)
	c.Insert(0, true, true, AllWays)
	c.Insert(2, false, false, AllWays)
	v, ev := c.Insert(4, false, false, AllWays)
	if !ev || !v.Dirty || !v.IO || v.Addr != 0 {
		t.Fatalf("victim %+v", v)
	}
}

func TestWayMaskConfinesFills(t *testing.T) {
	c := mk(t, 64*8, 8, LRU) // 1 set, 8 ways
	// Fill ways 0-1 via DDIO mask repeatedly: occupancy must never
	// exceed 2 for distinct lines.
	for i := uint64(0); i < 16; i++ {
		c.Insert(i, true, true, FirstN(2))
	}
	if c.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2 (mask confines fills)", c.Occupancy())
	}
	// Non-DDIO fills never displace lines outside their mask.
	c.Insert(100, false, false, ExceptFirstN(2))
	if c.Occupancy() != 3 {
		t.Fatalf("occupancy = %d, want 3", c.Occupancy())
	}
}

func TestMaskedHitStillServed(t *testing.T) {
	c := mk(t, 64*4, 4, LRU)
	c.Insert(7, false, true, FirstN(2))
	// A lookup with no mask involvement must hit even though a future
	// fill with a different mask wouldn't allocate there.
	if c.Lookup(7, true) == nil {
		t.Fatal("hit must be served from any way")
	}
}

func TestEmptyMaskPanics(t *testing.T) {
	c := mk(t, 64*4, 4, LRU)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty mask")
		}
	}()
	c.Insert(1, false, false, 0)
}

func TestInvalidate(t *testing.T) {
	c := mk(t, 64*4, 4, LRU)
	c.Insert(5, true, false, AllWays)
	present, dirty := c.Invalidate(5)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Find(5) >= 0 {
		t.Fatal("line still present after invalidate")
	}
	present, _ = c.Invalidate(5)
	if present {
		t.Fatal("double invalidate must miss")
	}
}

// A slot-addressed operation confirms the way it is given with one
// tag compare: the way Fill returned holds the line until it leaves,
// and a way that does not hold the line changes nothing.
func TestSlotAddressedOps(t *testing.T) {
	c := mk(t, 64*4, 4, LRU)
	way, _, ev := c.Fill(9, false, false, AllWays)
	if ev || c.Find(9) != way {
		t.Fatalf("Fill returned way %d (evicted %v), Find says %d", way, ev, c.Find(9))
	}
	other := (way + 1) % 4
	if c.LookupAt(9, other, true) != nil {
		t.Fatal("LookupAt on a way not holding the line must miss")
	}
	if p, _ := c.InvalidateAt(9, other); p {
		t.Fatal("InvalidateAt on a way not holding the line must miss")
	}
	if _, ok := c.TakeAt(9, other, true); ok {
		t.Fatal("TakeAt on a way not holding the line must miss")
	}
	if c.Find(9) != way || c.Occupancy() != 1 {
		t.Fatal("mismatched ways changed the cache")
	}
	c.LookupAt(9, way, false).Dirty = true
	if !c.Lookup(9, false).Dirty {
		t.Fatal("marking the entry at its way dirty failed")
	}
	if ln, ok := c.TakeAt(9, way, true); !ok || ln.Addr != 9 || !ln.Dirty || c.Find(9) >= 0 {
		t.Fatalf("TakeAt at the line's way: %+v, %v", ln, ok)
	}
	if c.LookupAt(9, -1, true) != nil {
		t.Fatal("way -1 must miss")
	}
}

func TestOccupancyIO(t *testing.T) {
	c := mk(t, 64*8, 8, LRU)
	c.Insert(1, true, true, AllWays)
	c.Insert(2, true, false, AllWays)
	c.Insert(3, false, true, AllWays)
	if c.OccupancyIO() != 2 {
		t.Fatalf("io occupancy = %d, want 2", c.OccupancyIO())
	}
}

// A lookup without touch (a snoop or occupancy probe) does not count
// as a use: the LRU line stays the victim.
func TestLookupNoTouchDoesNotCount(t *testing.T) {
	c := mk(t, 64*4, 4, LRU) // 1 set, 4 ways
	for i := uint64(0); i < 4; i++ {
		c.Insert(i, false, false, AllWays)
	}
	if c.Lookup(0, false) == nil || c.Lookup(99, false) != nil {
		t.Fatal("untouched lookups must still hit and miss")
	}
	if v, ev := c.Insert(100, false, false, AllWays); !ev || v.Addr != 0 {
		t.Fatalf("victim %+v (ev=%v), want line 0: an untouched lookup counted as a use", v, ev)
	}
}

func TestSRRIPHitPromotion(t *testing.T) {
	c := mk(t, 64*4, 4, SRRIP) // 1 set
	for i := uint64(0); i < 4; i++ {
		c.Insert(i, false, false, AllWays)
	}
	// Promote line 0 (hit); lines 1-3 stay at the insertion RRPV, so
	// the next fill must victimise one of them, never line 0.
	c.Lookup(0, true)
	for n := uint64(10); n < 13; n++ {
		v, ev := c.Insert(n, false, false, AllWays)
		if !ev {
			t.Fatal("full set must evict")
		}
		if v.Addr == 0 {
			t.Fatal("SRRIP must not evict the promoted hot line")
		}
	}
	if c.Find(0) < 0 {
		t.Fatal("hot line must survive the streaming fills")
	}
}

func TestSRRIPStreamingDoesNotThrashHotSet(t *testing.T) {
	// The SRRIP selling point: a hot working set re-referenced between
	// streaming fills survives, while under LRU-style insertion the
	// stream would cycle everything out.
	c := mk(t, 64*8, 8, SRRIP)
	hot := []uint64{0, 1, 2, 3}
	for _, h := range hot {
		c.Insert(h, false, false, AllWays)
		c.Lookup(h, true) // promote
	}
	for n := uint64(100); n < 200; n++ {
		c.Insert(n, false, false, AllWays) // stream
		for _, h := range hot {
			c.Lookup(h, true) // keep re-referencing
		}
	}
	for _, h := range hot {
		if c.Find(h) < 0 {
			t.Fatalf("hot line %d evicted by stream", h)
		}
	}
}

func TestSRRIPMaskedVictimStaysInMask(t *testing.T) {
	c := mk(t, 64*8, 8, SRRIP)
	for i := uint64(0); i < 8; i++ {
		c.Insert(i, false, false, AllWays)
	}
	for n := uint64(50); n < 80; n++ {
		c.Insert(n, false, true, FirstN(2))
	}
	if io := c.OccupancyIO(); io > 2 {
		t.Fatalf("masked SRRIP fills spilled: %d IO lines", io)
	}
	// Invalid-way scans run high-to-low, so the initial fills placed
	// lines 0..7 into ways 7..0; the mask (ways 0-1) can only have
	// displaced lines 6 and 7. Lines 0..5 must survive.
	for i := uint64(0); i < 6; i++ {
		if c.Find(i) < 0 {
			t.Fatalf("line %d outside the mask was evicted", i)
		}
	}
}

func TestForEachVisitsAllValid(t *testing.T) {
	c := mk(t, 64*16, 4, LRU)
	want := map[uint64]bool{}
	for i := uint64(0); i < 10; i++ {
		c.Insert(i*3, false, false, AllWays)
		want[i*3] = true
	}
	got := map[uint64]bool{}
	c.ForEach(func(way int, l Line) {
		got[l.Addr] = true
		if w := c.Find(l.Addr); w != way {
			t.Fatalf("ForEach gave line %d way %d, Find says %d", l.Addr, way, w)
		}
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d lines, want %d", len(got), len(want))
	}
}

// Property: occupancy never exceeds capacity; a line just inserted is
// always resident; eviction only reports lines that were inserted.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(ops []uint16, useSRRIP bool) bool {
		policy := LRU
		if useSRRIP {
			policy = SRRIP
		}
		c := New(Config{Name: "q", SizeBytes: 64 * 32, Assoc: 4, Policy: policy})
		inserted := map[uint64]bool{}
		for _, op := range ops {
			line := uint64(op % 97)
			switch op % 3 {
			case 0:
				v, ev := c.Insert(line, op%5 == 0, op%7 == 0, AllWays)
				inserted[line] = true
				if c.Find(line) < 0 {
					return false
				}
				if ev && !inserted[v.Addr] {
					return false
				}
			case 1:
				c.Lookup(line, true)
			case 2:
				c.Invalidate(line)
			}
			if c.Occupancy() > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with an n-way mask, at most n distinct masked fills survive
// per set.
func TestQuickMaskOccupancyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		n := rng.Intn(3) + 1
		c := New(Config{Name: "q", SizeBytes: 64 * 64, Assoc: 8, Policy: LRU})
		for i := 0; i < 500; i++ {
			c.Insert(uint64(rng.Intn(4096)), false, true, FirstN(n))
		}
		if got, max := c.OccupancyIO(), n*c.NumSets(); got > max {
			t.Fatalf("n=%d: IO occupancy %d > %d", n, got, max)
		}
	}
}

// Property: the O(1) occupancy counter always equals a full scan, for
// every policy and any op sequence.
func TestQuickOccupancyCounterMatchesScan(t *testing.T) {
	scan := func(c *Cache) int {
		n := 0
		c.ForEach(func(int, Line) { n++ })
		return n
	}
	f := func(ops []uint16, policyPick bool) bool {
		policy := LRU
		if policyPick {
			policy = SRRIP
		}
		c := New(Config{Name: "q", SizeBytes: 64 * 32, Assoc: 4, Policy: policy})
		for _, op := range ops {
			line := uint64(op % 61)
			switch op % 4 {
			case 0, 1:
				c.Insert(line, op%5 == 0, op%3 == 0, AllWays)
			case 2:
				c.Invalidate(line)
			case 3:
				if op%7 == 0 {
					c.Take(line, true)
				} else {
					c.Lookup(line, true)
				}
			}
			if c.Occupancy() != scan(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SRRIP victim selection always terminates and stays within
// the mask for arbitrary fill sequences.
func TestQuickSRRIPMaskedFills(t *testing.T) {
	f := func(lines []uint16, maskN uint8) bool {
		n := int(maskN%3) + 1
		c := New(Config{Name: "q", SizeBytes: 64 * 32, Assoc: 8, Policy: SRRIP})
		for _, l := range lines {
			c.Insert(uint64(l), false, true, FirstN(n))
		}
		return c.OccupancyIO() <= n*c.NumSets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertLookupLRU(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 1 << 20, Assoc: 16, Policy: LRU})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = rng.Uint64() % 65536
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if c.Lookup(a, true) == nil {
			c.Insert(a, false, false, AllWays)
		}
	}
}

// The 32-bit LRU clock renumbers its stamps instead of wrapping: a
// cache whose clock is pushed to the edge again and again (a forward
// jump keeps every order) makes the same choices as one that never
// gets near it.
func TestUseClockRenumberKeepsVictims(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := mk(t, 64*8*8, 8, LRU), mk(t, 64*8*8, 8, LRU)
	for op := 0; op < 50000; op++ {
		if op%300 == 0 {
			b.useClock = math.MaxUint32 - uint32(rng.Intn(20))
		}
		la := uint64(rng.Intn(200))
		switch rng.Intn(4) {
		case 0, 1:
			mask := WayMask(rng.Uint64()) | 1
			va, ea := a.Insert(la, false, false, mask)
			vb, eb := b.Insert(la, false, false, mask)
			if va != vb || ea != eb {
				t.Fatalf("op %d: Insert(%d) victims %+v/%v and %+v/%v", op, la, va, ea, vb, eb)
			}
		case 2:
			if (a.Lookup(la, true) == nil) != (b.Lookup(la, true) == nil) {
				t.Fatalf("op %d: Lookup(%d) differs", op, la)
			}
		default:
			pa, _ := a.Invalidate(la)
			pb, _ := b.Invalidate(la)
			if pa != pb {
				t.Fatalf("op %d: Invalidate(%d) differs", op, la)
			}
		}
	}
	if b.useClock > 1<<20 {
		t.Fatalf("use clock %d: renumbering never ran", b.useClock)
	}
}
