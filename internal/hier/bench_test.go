package hier

// Micro-benchmarks for the hierarchy's hot paths: these bound how fast
// the simulator itself can run (every simulated cacheline movement
// costs one of these calls).

import (
	"math/rand"
	"testing"

	"idio/internal/mem"
)

// benchHier is the Table I hierarchy for two cores, with the
// benchmarks' lines (the first 4 MiB) registered Invalidatable.
func benchHier(b *testing.B) *Hierarchy {
	b.Helper()
	h := New(DefaultConfig(2))
	h.RegisterInvalidatable(mem.Region{Size: 1 << 22})
	return h
}

func BenchmarkPCIeWriteStream(b *testing.B) {
	h := benchHier(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.PCIeWrite(0, mem.LineAddr(i%32768))
	}
}

func BenchmarkCoreReadHot(b *testing.B) {
	h := benchHier(b)
	// Working set fits in the MLC: steady-state L1/MLC hits.
	for i := 0; i < 4096; i++ {
		h.CoreRead(0, 0, mem.LineAddr(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CoreRead(0, 0, mem.LineAddr(i%4096))
	}
}

func BenchmarkCoreReadStreaming(b *testing.B) {
	h := benchHier(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A DDIO-then-consume stream: write-allocate + demand read.
		l := mem.LineAddr(i % 1048576)
		h.PCIeWrite(0, l)
		h.CoreRead(0, 0, l)
	}
}

func BenchmarkInvalidateRegion(b *testing.B) {
	h := benchHier(b)
	region := mem.Region{Base: 0, Size: 2048}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		region.Lines(func(l mem.LineAddr) { h.PCIeWrite(0, l) })
		h.InvalidateRegionNoWB(0, 0, region)
	}
}

func BenchmarkPrefetchToMLC(b *testing.B) {
	h := benchHier(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := mem.LineAddr(i % 262144)
		h.PCIeWrite(0, l)
		h.PrefetchToMLC(0, 0, l)
	}
}

func BenchmarkInvalidateNoWBEnforced(b *testing.B) {
	// Measures the PTE-bit lookup on the enforcement path: every
	// InvalidateNoWB consults the invalidatable region set (a binary
	// search over merged regions) before dropping the line.
	h := benchHier(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.InvalidateNoWB(0, 0, mem.LineAddr(i%4096))
	}
}

func BenchmarkMixedRandomOps(b *testing.B) {
	h := benchHier(b)
	rng := rand.New(rand.NewSource(1))
	ops := make([]int, 4096)
	lines := make([]mem.LineAddr, 4096)
	for i := range ops {
		ops[i] = rng.Intn(4)
		lines[i] = mem.LineAddr(rng.Intn(65536))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % 4096
		switch ops[j] {
		case 0:
			h.PCIeWrite(0, lines[j])
		case 1:
			h.CoreRead(0, j%2, lines[j])
		case 2:
			h.PCIeRead(0, lines[j])
		case 3:
			h.InvalidateNoWB(0, j%2, lines[j])
		}
	}
}
