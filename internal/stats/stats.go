// Package stats provides the measurement machinery used across the
// simulator: monotonic counters, fixed-interval timeline samplers (the
// paper reports rates over 10 µs buckets), and latency distributions
// with percentile queries.
package stats

import (
	"fmt"
	"sort"

	"idio/internal/sim"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Snapshot captures a counter value at a point in time; Delta computes
// the increment since a prior snapshot.
type Snapshot uint64

// Snap returns a snapshot of the counter.
func (c *Counter) Snap() Snapshot { return Snapshot(c.n) }

// Delta returns the counter increment since the snapshot was taken.
func (c *Counter) Delta(s Snapshot) uint64 { return c.n - uint64(s) }

// Timeline accumulates event counts into fixed-width time buckets so
// that per-interval rates (e.g. MLC writebacks per 10 µs) can be
// reported the way the paper's timeline figures do.
type Timeline struct {
	bucket  sim.Duration
	counts  []uint64
	horizon sim.Time
	// cur is the bucket the last Record landed in, covering [lo, hi):
	// events arrive in near time order, so most records skip the
	// division that maps a time to its bucket.
	cur    int
	lo, hi sim.Time
}

// NewTimeline creates a timeline with the given bucket width.
func NewTimeline(bucket sim.Duration) *Timeline {
	if bucket <= 0 {
		panic("stats: non-positive timeline bucket")
	}
	return &Timeline{bucket: bucket}
}

// Record adds n events at time t.
func (tl *Timeline) Record(t sim.Time, n uint64) {
	if t < tl.lo || t >= tl.hi {
		idx := int(int64(t) / int64(tl.bucket))
		for len(tl.counts) <= idx {
			tl.counts = append(tl.counts, 0)
		}
		tl.cur, tl.lo = idx, sim.Time(int64(idx)*int64(tl.bucket))
		tl.hi = tl.lo.Add(tl.bucket)
	}
	tl.counts[tl.cur] += n
	if t > tl.horizon {
		tl.horizon = t
	}
}

// NumBuckets returns the number of buckets with recorded data range.
func (tl *Timeline) NumBuckets() int { return len(tl.counts) }

// Count returns the raw event count in bucket i.
func (tl *Timeline) Count(i int) uint64 {
	if i < 0 || i >= len(tl.counts) {
		return 0
	}
	return tl.counts[i]
}

// Total returns the total number of events recorded.
func (tl *Timeline) Total() uint64 {
	var sum uint64
	for _, c := range tl.counts {
		sum += c
	}
	return sum
}

// RateMTPS returns the bucket-i event rate in millions of transactions
// per second, the unit used throughout the paper's figures.
func (tl *Timeline) RateMTPS(i int) float64 {
	secs := sim.Duration(tl.bucket).Seconds()
	return float64(tl.Count(i)) / secs / 1e6
}

// Series returns (time in µs of bucket start, rate in MTPS) pairs for
// every bucket, suitable for CSV output.
type SeriesPoint struct {
	TimeUS float64
	MTPS   float64
}

// Series materialises the whole timeline.
func (tl *Timeline) Series() []SeriesPoint {
	out := make([]SeriesPoint, len(tl.counts))
	for i := range tl.counts {
		out[i] = SeriesPoint{
			TimeUS: float64(int64(tl.bucket)*int64(i)) / float64(sim.Microsecond),
			MTPS:   tl.RateMTPS(i),
		}
	}
	return out
}

// PeakMTPS returns the maximum bucket rate.
func (tl *Timeline) PeakMTPS() float64 {
	var peak float64
	for i := range tl.counts {
		if r := tl.RateMTPS(i); r > peak {
			peak = r
		}
	}
	return peak
}

// LatencyDist collects per-packet latencies and answers percentile
// queries. Samples are stored raw (the experiments collect at most a
// few hundred thousand packets) so percentiles are exact.
type LatencyDist struct {
	samples []sim.Duration
	sorted  bool
}

// NewLatencyDist returns an empty distribution.
func NewLatencyDist() *LatencyDist { return &LatencyDist{} }

// Record adds one latency sample.
func (d *LatencyDist) Record(v sim.Duration) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Reserve pre-grows the sample store to hold at least n samples, so a
// measured steady-state loop records without reallocating.
func (d *LatencyDist) Reserve(n int) {
	if cap(d.samples) >= n {
		return
	}
	grown := make([]sim.Duration, len(d.samples), n)
	copy(grown, d.samples)
	d.samples = grown
}

// Count returns the number of samples.
func (d *LatencyDist) Count() int { return len(d.samples) }

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method. It returns 0 for an empty distribution.
func (d *LatencyDist) Percentile(p float64) sim.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	if !d.sorted {
		sort.Slice(d.samples, func(i, j int) bool { return d.samples[i] < d.samples[j] })
		d.sorted = true
	}
	rank := int(p/100*float64(len(d.samples))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(d.samples) {
		rank = len(d.samples) - 1
	}
	return d.samples[rank]
}

// P50 returns the median latency.
func (d *LatencyDist) P50() sim.Duration { return d.Percentile(50) }

// P99 returns the 99th-percentile latency.
func (d *LatencyDist) P99() sim.Duration { return d.Percentile(99) }

// Mean returns the average latency.
func (d *LatencyDist) Mean() sim.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	var sum int64
	for _, v := range d.samples {
		sum += int64(v)
	}
	return sim.Duration(sum / int64(len(d.samples)))
}

// Max returns the maximum sample.
func (d *LatencyDist) Max() sim.Duration {
	var m sim.Duration
	for _, v := range d.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Gbps converts a byte count over a duration to gigabits per second.
func Gbps(bytes uint64, over sim.Duration) float64 {
	if over <= 0 {
		return 0
	}
	return float64(bytes) * 8 / over.Seconds() / 1e9
}

// MTPS converts a transaction count over a duration to millions of
// transactions per second.
func MTPS(n uint64, over sim.Duration) float64 {
	if over <= 0 {
		return 0
	}
	return float64(n) / over.Seconds() / 1e6
}
