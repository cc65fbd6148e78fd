package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// refCache is the original two-pass tag store, kept verbatim as a
// reference model: replacement stamps live in each entry, victim
// selection scans every way of the set (invalid ways first, then the
// policy's pass), and Insert always probes for the line first. The
// differential test below drives it and Cache with the same operation
// stream and requires identical outcomes.
type refCache struct {
	cfg      Config
	sets     int
	lines    []refLine
	tags     []uint64
	useClock uint64
	occ      int
}

type refLine struct {
	Addr    uint64
	Valid   bool
	Dirty   bool
	IO      bool
	lastUse uint64
}

func newRef(cfg Config) *refCache {
	sets := cfg.SizeBytes / 64 / cfg.Assoc
	c := &refCache{
		cfg:   cfg,
		sets:  sets,
		lines: make([]refLine, sets*cfg.Assoc),
		tags:  make([]uint64, sets*cfg.Assoc),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

func (c *refCache) setIndex(lineAddr uint64) int { return int(lineAddr & uint64(c.sets-1)) }

func (c *refCache) set(lineAddr uint64) []refLine {
	si := c.setIndex(lineAddr)
	return c.lines[si*c.cfg.Assoc : (si+1)*c.cfg.Assoc]
}

func (c *refCache) find(lineAddr uint64) (int, *refLine) {
	base := c.setIndex(lineAddr) * c.cfg.Assoc
	tags := c.tags[base : base+c.cfg.Assoc]
	for w := range tags {
		if tags[w] == lineAddr {
			return w, &c.lines[base+w]
		}
	}
	return -1, nil
}

func (c *refCache) Lookup(lineAddr uint64, touch bool) *refLine {
	way, ln := c.find(lineAddr)
	if ln != nil && touch {
		c.touch(lineAddr, way)
	}
	return ln
}

func (c *refCache) touch(lineAddr uint64, way int) {
	switch c.cfg.Policy {
	case LRU:
		c.useClock++
		c.set(lineAddr)[way].lastUse = c.useClock
	case SRRIP:
		c.set(lineAddr)[way].lastUse = rrpvPromote
	}
}

func (c *refCache) place(lineAddr uint64, way int) {
	if c.cfg.Policy == SRRIP {
		c.set(lineAddr)[way].lastUse = rrpvInsert
		return
	}
	c.touch(lineAddr, way)
}

func (c *refCache) Insert(lineAddr uint64, dirty, io bool, mask WayMask) (Victim, bool) {
	if way, ln := c.find(lineAddr); ln != nil {
		ln.Dirty = ln.Dirty || dirty
		ln.IO = io
		c.touch(lineAddr, way)
		return Victim{}, false
	}
	way := c.victimWay(lineAddr, mask)
	set := c.set(lineAddr)
	var v Victim
	evicted := false
	if set[way].Valid {
		v = Victim{Addr: set[way].Addr, Dirty: set[way].Dirty, IO: set[way].IO}
		evicted = true
	}
	if !evicted {
		c.occ++
	}
	set[way] = refLine{Addr: lineAddr, Valid: true, Dirty: dirty, IO: io}
	c.tags[c.setIndex(lineAddr)*c.cfg.Assoc+way] = lineAddr
	c.place(lineAddr, way)
	return v, evicted
}

func (c *refCache) victimWay(lineAddr uint64, mask WayMask) int {
	if mask == 0 {
		panic(fmt.Sprintf("cache %s: empty way mask", c.cfg.Name))
	}
	set := c.set(lineAddr)
	base := c.setIndex(lineAddr) * c.cfg.Assoc
	for w := len(set) - 1; w >= 0; w-- {
		if mask&(1<<uint(w)) != 0 && c.tags[base+w] == invalidTag {
			return w
		}
	}
	switch c.cfg.Policy {
	case SRRIP:
		for {
			for w := range set {
				if mask&(1<<uint(w)) != 0 && set[w].lastUse >= rrpvMax {
					return w
				}
			}
			for w := range set {
				if mask&(1<<uint(w)) != 0 {
					set[w].lastUse++
				}
			}
		}
	default:
		best, bestUse := -1, ^uint64(0)
		for w := range set {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			if set[w].lastUse < bestUse {
				best, bestUse = w, set[w].lastUse
			}
		}
		if best < 0 {
			panic(fmt.Sprintf("cache %s: mask %x selects no way of %d", c.cfg.Name, mask, c.cfg.Assoc))
		}
		return best
	}
}

func (c *refCache) Invalidate(lineAddr uint64) (present, dirty bool) {
	way, ln := c.find(lineAddr)
	if ln == nil {
		return false, false
	}
	dirty = ln.Dirty
	*ln = refLine{}
	c.tags[c.setIndex(lineAddr)*c.cfg.Assoc+way] = invalidTag
	c.occ--
	return true, dirty
}

// randomMask draws the kinds of way masks the hierarchy uses — all
// ways, the first n (DDIO), all but the first n (app partitions), a
// single way — plus arbitrary subsets, sometimes with stray bits at or
// above the associativity. Every mask allows at least one real way.
func randomMask(rng *rand.Rand, assoc int) WayMask {
	var m WayMask
	switch rng.Intn(6) {
	case 0:
		m = AllWays
	case 1:
		m = FirstN(rng.Intn(assoc) + 1)
	case 2:
		m = ExceptFirstN(rng.Intn(assoc))
	case 3:
		m = 1 << uint(rng.Intn(assoc))
	default:
		m = WayMask(rng.Uint64()) & FirstN(assoc)
		if m == 0 {
			m = 1 << uint(rng.Intn(assoc))
		}
	}
	if rng.Intn(3) == 0 && assoc < 64 {
		m |= WayMask(rng.Uint64()) &^ FirstN(assoc)
	}
	return m
}

// TestTagStoreMatchesReference drives Cache and the reference model
// with the same random operation streams under every policy and
// requires the same victims, hits, residency (way by way) and
// occupancy after every operation. Take and Fill are checked against the
// reference's Lookup+Invalidate and Insert, Fill's way against the
// reference's, and the slot-addressed ops against their line-addressed
// twins at the line's way and as no-ops at any other.
func TestTagStoreMatchesReference(t *testing.T) {
	geoms := []struct {
		policy Policy
		assoc  int
	}{
		{LRU, 2}, {LRU, 8}, {LRU, 12}, {LRU, 16},
		{SRRIP, 4}, {SRRIP, 11}, {SRRIP, 16},
	}
	for gi, g := range geoms {
		t.Run(fmt.Sprintf("%v/%dway", g.policy, g.assoc), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + gi)))
			cfg := Config{Name: "d", SizeBytes: 64 * g.assoc * 8, Assoc: g.assoc, Policy: g.policy}
			c, ref := New(cfg), newRef(cfg)
			span := uint64(8 * g.assoc * 3) // ~3x capacity: steady eviction
			for op := 0; op < 20000; op++ {
				la := rng.Uint64() % span
				var what string
				switch k := rng.Intn(19); {
				case k < 7:
					mask := randomMask(rng, g.assoc)
					dirty, io := rng.Intn(2) == 0, rng.Intn(2) == 0
					what = fmt.Sprintf("Insert(%d, mask %x)", la, mask)
					v, ev := c.Insert(la, dirty, io, mask)
					rv, rev := ref.Insert(la, dirty, io, mask)
					if v != rv || ev != rev {
						t.Fatalf("op %d %s: victim %+v/%v, reference %+v/%v", op, what, v, ev, rv, rev)
					}
				case k < 10:
					if ref.Lookup(la, false) != nil {
						continue
					}
					mask := randomMask(rng, g.assoc)
					dirty, io := rng.Intn(2) == 0, rng.Intn(2) == 0
					what = fmt.Sprintf("Fill(%d, mask %x)", la, mask)
					way, v, ev := c.Fill(la, dirty, io, mask)
					rv, rev := ref.Insert(la, dirty, io, mask)
					if v != rv || ev != rev {
						t.Fatalf("op %d %s: victim %+v/%v, reference %+v/%v", op, what, v, ev, rv, rev)
					}
					if rw, _ := ref.find(la); rw != way {
						t.Fatalf("op %d %s: filled way %d, reference way %d", op, what, way, rw)
					}
				case k < 14:
					touch := rng.Intn(4) != 0
					what = fmt.Sprintf("Lookup(%d, %v)", la, touch)
					got, want := c.Lookup(la, touch), ref.Lookup(la, touch)
					if (got == nil) != (want == nil) || got != nil && (got.Dirty != want.Dirty || got.IO != want.IO) {
						t.Fatalf("op %d %s: %+v, reference %+v", op, what, got, want)
					}
				case k < 16:
					touch := rng.Intn(2) == 0
					what = fmt.Sprintf("Take(%d, %v)", la, touch)
					ln, ok := c.Take(la, touch)
					want := ref.Lookup(la, touch)
					if ok != (want != nil) || ok && (ln.Addr != want.Addr || ln.Dirty != want.Dirty || ln.IO != want.IO) {
						t.Fatalf("op %d %s: %+v/%v, reference %+v", op, what, ln, ok, want)
					}
					ref.Invalidate(la)
				case k < 18:
					what = fmt.Sprintf("Invalidate(%d)", la)
					p, d := c.Invalidate(la)
					rp, rd := ref.Invalidate(la)
					if p != rp || d != rd {
						t.Fatalf("op %d %s: %v/%v, reference %v/%v", op, what, p, d, rp, rd)
					}
				default:
					// A slot-addressed op at the line's way (or -1) acts as
					// its line-addressed twin; at any other way it is a
					// no-op.
					way := c.Find(la)
					if rng.Intn(3) == 0 {
						way = rng.Intn(g.assoc)
					}
					touch := rng.Intn(2) == 0
					rw, _ := ref.find(la)
					what = fmt.Sprintf("At(%d, way %d of %d, %v)", la, way, rw, touch)
					if way >= 0 && way != rw {
						if c.LookupAt(la, way, touch) != nil {
							t.Fatalf("op %d %s: LookupAt hit", op, what)
						}
						if _, ok := c.TakeAt(la, way, touch); ok {
							t.Fatalf("op %d %s: TakeAt hit", op, what)
						}
						if p, _ := c.InvalidateAt(la, way); p {
							t.Fatalf("op %d %s: InvalidateAt hit", op, what)
						}
						break
					}
					switch rng.Intn(3) {
					case 0:
						got, want := c.LookupAt(la, way, touch), ref.Lookup(la, touch)
						if (got == nil) != (want == nil) || got != nil && (got.Dirty != want.Dirty || got.IO != want.IO) {
							t.Fatalf("op %d Lookup%s: %+v, reference %+v", op, what, got, want)
						}
						if got != nil {
							got.Dirty, want.Dirty = true, true
						}
					case 1:
						ln, ok := c.TakeAt(la, way, touch)
						want := ref.Lookup(la, touch)
						if ok != (want != nil) || ok && (ln.Addr != want.Addr || ln.Dirty != want.Dirty || ln.IO != want.IO) {
							t.Fatalf("op %d Take%s: %+v/%v, reference %+v", op, what, ln, ok, want)
						}
						ref.Invalidate(la)
					default:
						p, d := c.InvalidateAt(la, way)
						rp, rd := ref.Invalidate(la)
						if p != rp || d != rd {
							t.Fatalf("op %d Invalidate%s: %v/%v, reference %v/%v", op, what, p, d, rp, rd)
						}
					}
				}
				if c.Occupancy() != ref.occ {
					t.Fatalf("op %d %s: occupancy %d, reference %d", op, what, c.Occupancy(), ref.occ)
				}
				for i, rl := range ref.lines {
					l := Line{Addr: c.tags[i], Valid: c.tags[i] != invalidTag, Dirty: c.state[i].Dirty, IO: c.state[i].IO}
					if l.Valid != rl.Valid || l.Valid && (l.Addr != rl.Addr || l.Dirty != rl.Dirty || l.IO != rl.IO) {
						t.Fatalf("op %d %s: way %d holds %+v, reference %+v", op, what, i, l, rl)
					}
				}
				si := c.setIndex(la)
				var valid uint64
				for w := 0; w < g.assoc; w++ {
					if ref.lines[si*g.assoc+w].Valid {
						valid |= 1 << uint(w)
					}
				}
				if c.valid[si] != valid {
					t.Fatalf("op %d %s: set %d valid bitmap %b, reference %b", op, what, si, c.valid[si], valid)
				}
			}
		})
	}
}

// TestLineLayout pins the entry size. A way is its tag word, its
// 32-bit replacement stamp (Cache.use) and its two flags (State): 14
// bytes. A Line, as Take and ForEach report it, is an address and three
// flags in 16 bytes.
func TestLineLayout(t *testing.T) {
	if n := unsafe.Sizeof(State{}); n != 2 {
		t.Fatalf("State is %d bytes, want 2", n)
	}
	if n := unsafe.Sizeof(Line{}); n != 16 {
		t.Fatalf("Line is %d bytes, want 16", n)
	}
}
