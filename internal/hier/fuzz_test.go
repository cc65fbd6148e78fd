package hier

import (
	"math/rand"
	"testing"

	"idio/internal/sim"
)

// FuzzHierOps decodes a sequence of hierarchy operations from its
// input and runs it on two hierarchies of one invariant config
// (victim-cache, NINE, tiny directory; the first byte picks it): one
// with the lines the ops touch registered, so they carry placement
// records, and one without. After every op both must pass
// CheckCoherence and agree on the op's result and on Stats. The rest of
// the input drives randomOp's draws, one byte per draw, so the whole op
// set is reachable: demand reads and writes, DMA writes (per class),
// DMA reads, direct DRAM writes, prefetches, self-invalidations of
// lines and regions, and WarmWrite.
//
// Tier-1 runs the seeds; `go test -run '^$' -fuzz FuzzHierOps
// -fuzztime 15s ./internal/hier` searches past them.
func FuzzHierOps(f *testing.F) {
	seeds := rand.New(rand.NewSource(7))
	for cfg := range invariantConfigs {
		for _, n := range []int{1, 64, 2048} {
			in := make([]byte, 1+n)
			in[0] = byte(cfg)
			seeds.Read(in[1:])
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		tc := invariantConfigs[int(in[0])%len(invariantConfigs)]
		walk, placed := randomOpHierarchy(t, tc.mk, false), randomOpHierarchy(t, tc.mk, true)
		ws, ps := &byteSource{in: in[1:]}, &byteSource{in: in[1:]}
		rw, rp := rand.New(ws), rand.New(ps)
		const lines = 96
		for op := 0; op < maxFuzzOps && !ws.done(); op++ {
			now := sim.Time(op) * sim.Time(sim.Nanosecond)
			what, x := randomOp(walk, rw, now, lines)
			_, y := randomOp(placed, rp, now, lines)
			for _, h := range []*Hierarchy{walk, placed} {
				if err := h.CheckCoherence(); err != nil {
					t.Fatalf("%s, op %d (%s), records %v: %v", tc.name, op, what, h == placed, err)
				}
			}
			if x != y || walk.Stats() != placed.Stats() {
				t.Fatalf("%s, op %d (%s): result %d without records, %d with; stats %+v vs %+v", tc.name, op, what, x, y, walk.Stats(), placed.Stats())
			}
		}
	})
}

// maxFuzzOps bounds one FuzzHierOps input's run: enough to fill every
// cache of the small configs several times over, and short enough that
// the fuzzer can minimize an input in seconds.
const maxFuzzOps = 512

// byteSource is a rand.Source that spends one input byte per draw,
// mixed with the draw's position so that equal bytes still give
// well-spread values, and draws zeros once the input runs out.
type byteSource struct {
	in []byte
	n  int
}

func (s *byteSource) Int63() int64 {
	var b uint64
	if s.n < len(s.in) {
		b = uint64(s.in[s.n])
	}
	s.n++
	// splitmix64's finalizer over the byte and the draw's position.
	x := b + uint64(s.n)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64((x ^ x>>31) >> 1)
}

func (s *byteSource) Seed(int64) { panic("byteSource cannot be reseeded") }

// done reports whether the input is spent.
func (s *byteSource) done() bool { return s.n >= len(s.in) }
