// Package dram models main memory. Two fidelity levels are supported:
//
//   - flat: every access costs AccessLatency plus bus serialisation
//     (Banks == 0);
//   - banked: a row-buffer model — each bank keeps one row open; an
//     access to the open row costs RowHitLatency, any other row costs
//     RowMissLatency (precharge + activate + CAS). Sequential DMA
//     streams mostly hit open rows while the LLC antagonist's random
//     accesses mostly miss, which is exactly the asymmetry that
//     matters for the paper's traffic mix.
//
// Both levels share a bandwidth pipe: each 64-byte burst occupies the
// data bus for 64B/BytesPerSecond, so writeback storms back-pressure
// the hierarchy.
package dram

import (
	"fmt"
	"math/bits"

	"idio/internal/obs"
	"idio/internal/sim"
	"idio/internal/stats"
)

// Config describes the memory device.
type Config struct {
	// AccessLatency is the flat access cost when Banks == 0, and the
	// row-miss cost when the banked model is active and RowMissLatency
	// is unset.
	AccessLatency sim.Duration
	// BytesPerSecond is the peak sustained bandwidth across channels.
	BytesPerSecond int64

	// Banks enables the row-buffer model when > 0. It must be a power
	// of two.
	Banks int
	// RowBytes is the DRAM row (page) size per bank: a power of two of
	// at least 64.
	RowBytes int
	// RowHitLatency is the open-row access cost.
	RowHitLatency sim.Duration
	// RowMissLatency is the closed/conflicting-row cost; falls back to
	// AccessLatency when zero.
	RowMissLatency sim.Duration
}

// DefaultConfig models one channel of DDR4-3200 as in Table I's gem5
// configuration: 25.6 GB/s peak, 8 banks with 8 KB rows, ~42 ns
// open-row hits and ~95 ns row misses (precharge+activate+CAS).
func DefaultConfig() Config {
	return Config{
		AccessLatency:  80 * sim.Nanosecond,
		BytesPerSecond: 25_600_000_000,
		Banks:          8,
		RowBytes:       8 << 10,
		RowHitLatency:  42 * sim.Nanosecond,
		RowMissLatency: 95 * sim.Nanosecond,
	}
}

// FlatConfig is the simple fixed-latency model (useful for tests that
// want deterministic per-access costs).
func FlatConfig() Config {
	return Config{
		AccessLatency:  80 * sim.Nanosecond,
		BytesPerSecond: 25_600_000_000,
	}
}

// DRAM serialises cacheline transfers through a bandwidth pipe and
// charges per-access latency from the row-buffer state.
type DRAM struct {
	cfg Config
	// busFree is the earliest instant the data bus can begin the next
	// 64-byte transfer.
	busFree sim.Time
	// xfer is how long one 64-byte burst occupies the bus.
	xfer sim.Duration
	// rowShift and bankMask map a byte address to its row (addr >>
	// rowShift) and the row to its bank (row & bankMask).
	rowShift uint
	bankMask int64
	// openRow[b] is bank b's open row (-1 when none).
	openRow []int64

	// extraLat is a transient injected per-access penalty (fault
	// injection); penalized counts accesses that paid it.
	extraLat  sim.Duration
	penalized stats.Counter

	reads     stats.Counter
	writes    stats.Counter
	rowHits   stats.Counter
	rowMisses stats.Counter
}

// New builds a DRAM model.
func New(cfg Config) *DRAM {
	if cfg.BytesPerSecond <= 0 {
		panic("dram: non-positive bandwidth")
	}
	if cfg.Banks > 0 && cfg.RowBytes < 64 {
		panic("dram: banked model needs RowBytes >= 64")
	}
	if cfg.Banks > 0 && (!powerOfTwo(cfg.Banks) || !powerOfTwo(cfg.RowBytes)) {
		panic(fmt.Sprintf("dram: banked model needs power-of-two Banks and RowBytes, got %d and %d", cfg.Banks, cfg.RowBytes))
	}
	if cfg.RowMissLatency == 0 {
		cfg.RowMissLatency = cfg.AccessLatency
	}
	d := &DRAM{cfg: cfg, xfer: sim.Duration(64 * int64(sim.Second) / cfg.BytesPerSecond)}
	if cfg.Banks > 0 {
		d.rowShift = uint(bits.TrailingZeros(uint(cfg.RowBytes)))
		d.bankMask = int64(cfg.Banks - 1)
		d.openRow = make([]int64, cfg.Banks)
		for i := range d.openRow {
			d.openRow[i] = -1
		}
	}
	return d
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// rowOf returns the row holding lineAddr and the bank that row maps
// to (banked model only).
func (d *DRAM) rowOf(lineAddr uint64) (row int64, bank int) {
	row = int64((lineAddr * 64) >> d.rowShift)
	return row, int(row & d.bankMask)
}

// SetExtraLatency adds a transient per-access latency penalty — the
// fault injector's model of thermal throttling, refresh storms, or a
// contended memory channel. Zero clears the penalty. PenalizedAccesses
// counts accesses served while a penalty was active.
func (d *DRAM) SetExtraLatency(extra sim.Duration) { d.extraLat = extra }

// ExtraLatency returns the currently active penalty.
func (d *DRAM) ExtraLatency() sim.Duration { return d.extraLat }

// PenalizedAccesses returns how many accesses paid an injected
// latency penalty.
func (d *DRAM) PenalizedAccesses() uint64 { return d.penalized.Value() }

// access reserves the bus and returns the completion latency as seen
// by the requester at time now for the cacheline at lineAddr.
func (d *DRAM) access(now sim.Time, lineAddr uint64) sim.Duration {
	lat := d.cfg.AccessLatency
	if d.cfg.Banks > 0 {
		row, bank := d.rowOf(lineAddr)
		if d.openRow[bank] == row {
			d.rowHits.Inc()
			lat = d.cfg.RowHitLatency
		} else {
			d.rowMisses.Inc()
			lat = d.cfg.RowMissLatency
			d.openRow[bank] = row
		}
	}
	if d.extraLat > 0 {
		lat += d.extraLat
		d.penalized.Inc()
	}
	start := now
	if d.busFree > start {
		start = d.busFree
	}
	d.busFree = start.Add(d.xfer)
	return d.busFree.Sub(now) + lat
}

// Read performs a cacheline read at time now and returns its latency.
func (d *DRAM) Read(now sim.Time, lineAddr uint64) sim.Duration {
	d.reads.Inc()
	return d.access(now, lineAddr)
}

// Write performs a cacheline write at time now and returns its
// latency. Writes are posted by callers in practice, but the latency
// lets a caller model write-queue back-pressure if it wants to.
func (d *DRAM) Write(now sim.Time, lineAddr uint64) sim.Duration {
	d.writes.Inc()
	return d.access(now, lineAddr)
}

// Reads returns the total read transaction count.
func (d *DRAM) Reads() uint64 { return d.reads.Value() }

// Writes returns the total write transaction count.
func (d *DRAM) Writes() uint64 { return d.writes.Value() }

// RowHits returns open-row accesses (banked model only).
func (d *DRAM) RowHits() uint64 { return d.rowHits.Value() }

// RowMisses returns closed/conflicting-row accesses.
func (d *DRAM) RowMisses() uint64 { return d.rowMisses.Value() }

// ReadBytes returns total bytes read.
func (d *DRAM) ReadBytes() uint64 { return d.reads.Value() * 64 }

// WriteBytes returns total bytes written.
func (d *DRAM) WriteBytes() uint64 { return d.writes.Value() * 64 }

// RegisterMetrics registers the DRAM counter set under prefix (e.g.
// "dram.") into the observability registry.
func (d *DRAM) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"reads", d.Reads)
	reg.CounterFunc(prefix+"writes", d.Writes)
	reg.CounterFunc(prefix+"row_hits", d.RowHits)
	reg.CounterFunc(prefix+"row_misses", d.RowMisses)
	reg.CounterFunc(prefix+"penalized_accesses", d.PenalizedAccesses)
}
