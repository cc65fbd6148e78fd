package hier

import (
	"math/rand"
	"testing"
)

// FuzzHierOps decodes a sequence of hierarchy operations from its
// input and runs it in lockstep on a hierarchy of one invariant config
// (victim-cache, NINE, tiny directory; the first byte picks it) and on
// the line-addressed spec of it (spec_test.go). After every op the
// hierarchy must pass CheckCoherence and agree with the spec
// (specStep). The rest of the input drives randomOp's draws, one byte
// per draw, so the whole op set is reachable: demand reads and writes,
// DMA writes (per class), DMA reads, direct DRAM writes, prefetches,
// self-invalidations of lines and regions, and WarmWrite.
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
		h := randomOpHierarchy(t, tc.mk)
		s := specFor(h)
		hs := &byteSource{in: in[1:]}
		rh, rs := rand.New(hs), rand.New(&byteSource{in: in[1:]})
		for op := 0; op < maxFuzzOps && !hs.done(); op++ {
			if err := specStep(h, s, rh, rs, op, 96); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := h.CheckCoherence(); err != nil {
				t.Fatalf("%s, op %d: %v", tc.name, op, err)
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
