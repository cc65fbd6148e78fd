package stats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"idio/internal/sim"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero counter should be 0")
	}
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("value = %d, want 10", c.Value())
	}
	snap := c.Snap()
	c.Add(5)
	if c.Delta(snap) != 5 {
		t.Fatalf("delta = %d, want 5", c.Delta(snap))
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestTimelineBuckets(t *testing.T) {
	tl := NewTimeline(10 * sim.Microsecond)
	tl.Record(0, 1)
	tl.Record(sim.Time(9999*sim.Nanosecond), 2)  // still bucket 0
	tl.Record(sim.Time(10000*sim.Nanosecond), 4) // bucket 1
	tl.Record(sim.Time(35*sim.Microsecond), 8)   // bucket 3
	if tl.Count(0) != 3 || tl.Count(1) != 4 || tl.Count(2) != 0 || tl.Count(3) != 8 {
		t.Fatalf("bucket counts wrong: %d %d %d %d", tl.Count(0), tl.Count(1), tl.Count(2), tl.Count(3))
	}
	if tl.Total() != 15 {
		t.Fatalf("total = %d, want 15", tl.Total())
	}
	if tl.NumBuckets() != 4 {
		t.Fatalf("buckets = %d, want 4", tl.NumBuckets())
	}
}

// Records out of time order, around bucket edges, must land where the
// plain time/bucket division puts them.
func TestTimelineOutOfOrderMatchesDivision(t *testing.T) {
	const bucket = 10 * sim.Microsecond
	tl := NewTimeline(bucket)
	want := map[int]uint64{}
	rng := rand.New(rand.NewSource(7))
	at := sim.Time(0)
	for i := 0; i < 5000; i++ {
		switch rng.Intn(4) {
		case 0:
			at = sim.Time(rng.Int63n(int64(50 * bucket)))
		case 1:
			at = sim.Time(int64(bucket)*rng.Int63n(50) - rng.Int63n(2)) // an edge
		default:
			at += sim.Time(rng.Int63n(int64(bucket) / 4))
		}
		if at < 0 {
			at = 0
		}
		tl.Record(at, uint64(i))
		want[int(int64(at)/int64(bucket))] += uint64(i)
	}
	for i := 0; i < tl.NumBuckets(); i++ {
		if tl.Count(i) != want[i] {
			t.Fatalf("bucket %d: %d, want %d", i, tl.Count(i), want[i])
		}
	}
}

func TestTimelineRateMTPS(t *testing.T) {
	tl := NewTimeline(10 * sim.Microsecond)
	// 500 events in 10us = 50 M/s.
	tl.Record(sim.Time(5*sim.Microsecond), 500)
	if got := tl.RateMTPS(0); got < 49.99 || got > 50.01 {
		t.Fatalf("rate = %v MTPS, want 50", got)
	}
	if got := tl.PeakMTPS(); got < 49.99 || got > 50.01 {
		t.Fatalf("peak = %v, want 50", got)
	}
}

func TestTimelineSeries(t *testing.T) {
	tl := NewTimeline(10 * sim.Microsecond)
	tl.Record(sim.Time(25*sim.Microsecond), 100)
	s := tl.Series()
	if len(s) != 3 {
		t.Fatalf("series len = %d, want 3", len(s))
	}
	if s[2].TimeUS != 20 {
		t.Fatalf("bucket 2 starts at %v us, want 20", s[2].TimeUS)
	}
	if s[0].MTPS != 0 || s[2].MTPS <= 0 {
		t.Fatal("series rates wrong")
	}
}

func TestTimelineOutOfRangeCount(t *testing.T) {
	tl := NewTimeline(sim.Microsecond)
	if tl.Count(-1) != 0 || tl.Count(5) != 0 {
		t.Fatal("out-of-range buckets must read 0")
	}
}

func TestLatencyPercentilesExact(t *testing.T) {
	d := NewLatencyDist()
	for i := 1; i <= 100; i++ {
		d.Record(sim.Duration(i))
	}
	if d.P50() != 50 {
		t.Fatalf("p50 = %d, want 50", d.P50())
	}
	if d.P99() != 99 {
		t.Fatalf("p99 = %d, want 99", d.P99())
	}
	if d.Percentile(100) != 100 {
		t.Fatalf("p100 = %d, want 100", d.Percentile(100))
	}
	if d.Percentile(1) != 1 {
		t.Fatalf("p1 = %d, want 1", d.Percentile(1))
	}
}

func TestLatencySingleSample(t *testing.T) {
	d := NewLatencyDist()
	d.Record(42)
	for _, p := range []float64{1, 50, 99, 100} {
		if d.Percentile(p) != 42 {
			t.Fatalf("p%v of single sample = %d", p, d.Percentile(p))
		}
	}
}

func TestLatencyEmpty(t *testing.T) {
	d := NewLatencyDist()
	if d.P99() != 0 || d.Mean() != 0 || d.Max() != 0 {
		t.Fatal("empty distribution must report zeros")
	}
}

func TestLatencyMeanMax(t *testing.T) {
	d := NewLatencyDist()
	d.Record(10)
	d.Record(20)
	d.Record(30)
	if d.Mean() != 20 {
		t.Fatalf("mean = %d, want 20", d.Mean())
	}
	if d.Max() != 30 {
		t.Fatalf("max = %d, want 30", d.Max())
	}
}

func TestLatencyRecordAfterQueryResorts(t *testing.T) {
	d := NewLatencyDist()
	d.Record(100)
	_ = d.P50()
	d.Record(1)
	if d.P50() != 1 && d.P50() != 100 {
		t.Fatalf("p50 = %d", d.P50())
	}
	if d.Percentile(100) != 100 {
		t.Fatal("max percentile must see later sample")
	}
}

func TestGbpsConversion(t *testing.T) {
	// 12.5 GB over 1 second = 100 Gbps.
	if got := Gbps(12_500_000_000, sim.Second); got < 99.99 || got > 100.01 {
		t.Fatalf("Gbps = %v, want 100", got)
	}
	if Gbps(1, 0) != 0 {
		t.Fatal("zero duration must yield 0")
	}
}

func TestMTPSConversion(t *testing.T) {
	if got := MTPS(50, sim.Microsecond); got < 49.99 || got > 50.01 {
		t.Fatalf("MTPS = %v, want 50", got)
	}
}

// Property: percentile is monotonic in p and bounded by min/max.
func TestQuickPercentileMonotonic(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewLatencyDist()
		min, max := sim.Duration(raw[0]), sim.Duration(raw[0])
		for _, r := range raw {
			v := sim.Duration(r)
			d.Record(v)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		prev := sim.Duration(-1)
		for p := 1.0; p <= 100; p += 7 {
			v := d.Percentile(p)
			if v < prev || v < min || v > max {
				return false
			}
			prev = v
		}
		return d.Percentile(100) == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: timeline total equals sum of recorded amounts regardless of
// recording order.
func TestQuickTimelineTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		tl := NewTimeline(sim.Duration(rng.Intn(1000) + 1))
		var want uint64
		for i := 0; i < 200; i++ {
			n := uint64(rng.Intn(100))
			tl.Record(sim.Time(rng.Intn(100000)), n)
			want += n
		}
		if tl.Total() != want {
			t.Fatalf("total = %d, want %d", tl.Total(), want)
		}
	}
}
