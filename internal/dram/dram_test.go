package dram

import (
	"math/rand"
	"testing"

	"idio/internal/sim"
)

func TestUnloadedLatency(t *testing.T) {
	d := New(FlatConfig())
	lat := d.Read(0, 0)
	// 64B at 25.6GB/s = 2.5ns transfer + 80ns access.
	want := 80*sim.Nanosecond + 2500*sim.Picosecond
	if lat != want {
		t.Fatalf("latency = %v ps, want %v", lat, want)
	}
}

func TestBandwidthSerialisation(t *testing.T) {
	d := New(Config{AccessLatency: 0, BytesPerSecond: 6_400_000_000}) // 10ns per line
	l1 := d.Read(0, 0)
	l2 := d.Read(0, 0)
	l3 := d.Read(0, 0)
	if l1 != 10*sim.Nanosecond || l2 != 20*sim.Nanosecond || l3 != 30*sim.Nanosecond {
		t.Fatalf("queueing latencies %v %v %v", l1, l2, l3)
	}
	// After the bus drains, latency returns to unloaded.
	l4 := d.Read(sim.Time(1*sim.Microsecond), 0)
	if l4 != 10*sim.Nanosecond {
		t.Fatalf("post-drain latency %v", l4)
	}
}

func TestReadWriteShareBus(t *testing.T) {
	d := New(Config{AccessLatency: 0, BytesPerSecond: 6_400_000_000})
	d.Write(0, 0)
	lat := d.Read(0, 0)
	if lat != 20*sim.Nanosecond {
		t.Fatalf("read after write latency %v, want 20ns", lat)
	}
}

func TestCounters(t *testing.T) {
	d := New(FlatConfig())
	for i := 0; i < 3; i++ {
		d.Read(0, 0)
	}
	d.Write(0, 0)
	if d.Reads() != 3 || d.Writes() != 1 {
		t.Fatalf("reads=%d writes=%d", d.Reads(), d.Writes())
	}
	if d.ReadBytes() != 192 || d.WriteBytes() != 64 {
		t.Fatalf("bytes r=%d w=%d", d.ReadBytes(), d.WriteBytes())
	}
}

func TestZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{AccessLatency: 1, BytesPerSecond: 0})
}

func TestRowBufferHitsAndMisses(t *testing.T) {
	cfg := Config{
		BytesPerSecond: 25_600_000_000,
		Banks:          4, RowBytes: 4096,
		RowHitLatency: 40 * sim.Nanosecond, RowMissLatency: 100 * sim.Nanosecond,
	}
	d := New(cfg)
	// First access to a row: miss; subsequent lines of the same row: hits.
	// 4096B row = 64 lines.
	lat0 := d.Read(0, 0)
	if lat0 < 100*sim.Nanosecond {
		t.Fatalf("cold access must row-miss: %v", lat0)
	}
	lat1 := d.Read(sim.Time(sim.Microsecond), 1)
	if lat1 >= 100*sim.Nanosecond {
		t.Fatalf("same-row access must hit: %v", lat1)
	}
	if d.RowHits() != 1 || d.RowMisses() != 1 {
		t.Fatalf("hits=%d misses=%d", d.RowHits(), d.RowMisses())
	}
	// A different row on the same bank evicts the open row.
	// Row r maps to bank r%4; rows 0 and 4 share bank 0.
	d.Read(sim.Time(2*sim.Microsecond), 4*64) // row 4 -> bank 0
	lat3 := d.Read(sim.Time(3*sim.Microsecond), 2)
	if lat3 < 100*sim.Nanosecond {
		t.Fatalf("conflicting row must miss: %v", lat3)
	}
}

func TestSequentialStreamMostlyRowHits(t *testing.T) {
	d := New(DefaultConfig())
	for l := uint64(0); l < 1024; l++ {
		d.Read(sim.Time(int64(l)*int64(sim.Microsecond)), l)
	}
	// 8KB rows = 128 lines: 1024 sequential lines = 8 misses, 1016 hits.
	if d.RowMisses() != 8 || d.RowHits() != 1016 {
		t.Fatalf("sequential stream: hits=%d misses=%d", d.RowHits(), d.RowMisses())
	}
}

func TestRandomStreamMostlyRowMisses(t *testing.T) {
	d := New(DefaultConfig())
	// Stride far beyond the row size: every access opens a new row.
	for i := uint64(0); i < 256; i++ {
		d.Read(sim.Time(int64(i)*int64(sim.Microsecond)), i*1024*1024)
	}
	if d.RowHits() != 0 {
		t.Fatalf("strided stream must never row-hit: %d hits", d.RowHits())
	}
}

func TestBankedValidation(t *testing.T) {
	for _, cfg := range []Config{
		{BytesPerSecond: 1, Banks: 2, RowBytes: 32},
		{BytesPerSecond: 1, Banks: 6, RowBytes: 4096},
		{BytesPerSecond: 1, Banks: 8, RowBytes: 3000},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for banks %d, row bytes %d", cfg.Banks, cfg.RowBytes)
				}
			}()
			New(cfg)
		}()
	}
}

// The row and bank come from a shift and a mask; they must be the
// quotient and remainder the row-buffer model is defined by.
func TestRowOfMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, banks := range []int{1, 2, 8, 16} {
		for _, rowBytes := range []int{64, 4096, 8 << 10} {
			d := New(Config{BytesPerSecond: 1, Banks: banks, RowBytes: rowBytes})
			for i := 0; i < 1000; i++ {
				line := rng.Uint64() >> uint(rng.Intn(64))
				wantRow := int64(line * 64 / uint64(rowBytes))
				wantBank := int(wantRow % int64(banks))
				if row, bank := d.rowOf(line); row != wantRow || bank != wantBank {
					t.Fatalf("banks %d, rows %d B, line %d: row %d bank %d, want %d %d", banks, rowBytes, line, row, bank, wantRow, wantBank)
				}
			}
		}
	}
}
