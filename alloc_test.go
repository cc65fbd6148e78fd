// Allocation and recycling regression guards for the zero-allocation
// packet lifecycle: the steady-state loop (generate → NIC RX → DMA →
// service → free) must not touch the Go heap per packet, recycling
// must not change simulation results, and drained runs must return
// every packet to the pool.
package idio_test

import (
	"bytes"
	"runtime"
	"testing"

	"idio"
	"idio/internal/apps"
	idiocore "idio/internal/core"
	"idio/internal/cpu"
	fnet "idio/internal/net"
	"idio/internal/pkt"
	"idio/internal/qos"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// TestAllocsPerPacket asserts the steady-state packet loop performs
// zero heap allocations. Unbounded collectors that grow amortized —
// per-interval timelines and the raw latency sample store — are
// excluded up front (bucket width 0, Reserve); everything else warms
// up during the lead-in: the packet pool reaches its high-water mark,
// the event heap and stats maps reach steady size.
func TestAllocsPerPacket(t *testing.T) {
	cfg := idio.DefaultConfig(1)
	cfg.Hier.MLCSize = benchMLC
	cfg.Hier.LLCSize = benchLLC
	cfg.NIC.RingSize = benchRing
	cfg.Policy = idiocore.PolicyIDIO
	cfg.Hier.TimelineBucket = 0 // timelines append one bucket per interval, not per packet
	// Admission control is on the steered hot path; it must not cost an
	// allocation (a high watermark keeps the check armed but not firing).
	cfg.NIC.AdmissionWatermark = benchRing
	sys := idio.NewSystem(cfg)
	flow := sys.DefaultFlow(0)
	c := sys.AddNF(0, apps.TouchDrop{}, flow)
	traffic.Steady{
		Flow:    flow,
		RateBps: traffic.Gbps(10),
		Count:   1 << 30, // effectively unbounded: keeps emitting through every measured slice
	}.Install(sys.Sim, sys.NIC)
	sys.Start()
	c.Latencies.Reserve(1 << 20)

	now := sim.Time(4 * sim.Millisecond)
	sys.Sim.RunUntil(now)
	warm := c.Processed
	if warm == 0 {
		t.Fatal("warm-up processed no packets")
	}

	const step = 500 * sim.Microsecond
	avg := testing.AllocsPerRun(100, func() {
		now = now.Add(step)
		sys.Sim.RunUntil(now)
	})
	pkts := c.Processed - warm
	if pkts == 0 {
		t.Fatal("measured window processed no packets")
	}
	if avg != 0 {
		t.Fatalf("%.2f allocs per %v slice (%d packets measured): steady-state loop must not allocate",
			avg, step, pkts)
	}
}

// TestNullPoolByteIdentical proves recycling changes memory reuse and
// nothing else: the same workload over the recycling pool and over a
// pool that always allocates must produce byte-identical stats output.
func TestNullPoolByteIdentical(t *testing.T) {
	run := func(pool *pkt.Pool) (string, idio.Results) {
		cfg := idio.DefaultConfig(2)
		cfg.Hier.MLCSize = benchMLC
		cfg.Hier.LLCSize = benchLLC
		cfg.NIC.RingSize = benchRing
		cfg.Policy = idiocore.PolicyIDIO
		sys := idio.NewSystem(cfg)
		nfs := []cpu.App{apps.TouchDrop{}, apps.L2Fwd{}}
		for c := 0; c < cfg.NumCores(); c++ {
			flow := sys.DefaultFlow(c)
			sys.AddNF(c, nfs[c], flow)
			traffic.Steady{
				Flow: flow, RateBps: traffic.Gbps(10), Count: 2048, Pool: pool,
			}.Install(sys.Sim, sys.NIC)
		}
		res := sys.RunUntilIdle(50 * sim.Millisecond)
		var buf bytes.Buffer
		res.WriteStats(&buf)
		return buf.String(), res
	}
	pooled, pres := run(nil) // discovers the host pool: full recycling
	null, _ := run(pkt.NewNullPool())
	if pooled != null {
		t.Fatalf("pooled and null-pool runs diverge:\n--- pooled ---\n%s\n--- null ---\n%s", pooled, null)
	}
	if pres.PktPool.Outstanding != 0 {
		t.Fatalf("pool leak after drained run: %+v", pres.PktPool)
	}
	if pres.PktPool.Gets == 0 {
		t.Fatal("pooled run never drew from the host pool")
	}
	if pres.PktPool.Allocs >= pres.PktPool.Gets {
		t.Fatalf("pool never recycled: %+v", pres.PktPool)
	}
}

// TestClusterAllocsPerRequest asserts the fabric RPC loop stays off
// the heap with the resilience stack armed: retrying clients (per-
// attempt sequence numbers, timeout events, request-state tracking),
// AQM on every link, and DUT admission control. Faults never fire in
// the measured window — this is the steady-state cost of being ready
// to degrade.
func TestClusterAllocsPerRequest(t *testing.T) {
	ccfg := idio.DefaultClusterConfig(1, 1)
	ccfg.Host.Hier.MLCSize = benchMLC
	ccfg.Host.Hier.LLCSize = benchLLC
	ccfg.Host.NIC.RingSize = benchRing
	ccfg.Host.Policy = idiocore.PolicyIDIO
	ccfg.Host.Hier.TimelineBucket = 0
	ccfg.Host.NIC.AdmissionWatermark = benchRing
	ccfg.ClientLink.AQMTarget = 50 * sim.Microsecond
	ccfg.ServerLink.AQMTarget = 50 * sim.Microsecond
	cl, err := idio.NewCluster(ccfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl.DUT.AddNF(0, apps.L2Fwd{}, cl.DUT.DefaultFlow(0))
	c := cl.AddRPCClient(0, 0, fnet.ClientConfig{
		Mode: fnet.ModeClosed, Outstanding: 8, Requests: 1 << 30,
		Timeout: 500 * sim.Microsecond,
		Retry:   &fnet.RetryConfig{MaxRetries: 3, Backoff: 100 * sim.Microsecond, JitterFrac: 0.25, Seed: 3},
	})
	cl.Start()

	now := sim.Time(4 * sim.Millisecond)
	cl.Sim.RunUntil(now)
	warm := c.Responses()
	if warm == 0 {
		t.Fatal("warm-up answered no requests")
	}
	const step = 500 * sim.Microsecond
	avg := testing.AllocsPerRun(100, func() {
		now = now.Add(step)
		cl.Sim.RunUntil(now)
	})
	reqs := c.Responses() - warm
	if reqs == 0 {
		t.Fatal("measured window answered no requests")
	}
	if avg != 0 {
		t.Fatalf("%.2f allocs per %v slice (%d requests measured): the armed resilience stack must not allocate",
			avg, step, reqs)
	}
}

// TestChurnAllocsPerRequest asserts the million-flow engine stays off
// the heap in steady state: 128k concurrent flows resident in the
// compact flow table, every think/timeout/arrival deadline on the
// hashed timer wheel, and the NIC's per-flow statistics table armed.
// Admissions, departures, and replacement arrivals all happen inside
// the measured window — churn itself must not allocate once the table,
// wheel slab, and packet pool are warm.
func TestChurnAllocsPerRequest(t *testing.T) {
	ccfg := idio.DefaultClusterConfig(1, 1)
	ccfg.Host.Hier.MLCSize = benchMLC
	ccfg.Host.Hier.LLCSize = benchLLC
	ccfg.Host.NIC.RingSize = benchRing
	ccfg.Host.Policy = idiocore.PolicyIDIO
	ccfg.Host.Hier.TimelineBucket = 0
	cl, err := idio.NewCluster(ccfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl.DUT.AddNF(0, apps.L2Fwd{}, cl.DUT.DefaultFlow(0))
	// 128k flows thinking 250ms each offer ~512k requests/s — a busy
	// but uncontended load on the one-core DUT, so the window measures
	// the lifecycle, not queueing.
	c := cl.AddChurnClient(0, fnet.ChurnConfig{
		Flows:    128 << 10,
		Requests: 1 << 62,
		Think:    250 * sim.Millisecond,
		Seed:     11,
	})
	cl.Start()

	now := sim.Time(4 * sim.Millisecond)
	cl.Sim.RunUntil(now)
	warm := c.Responses()
	if warm == 0 {
		t.Fatal("warm-up answered no requests")
	}
	const step = 500 * sim.Microsecond
	avg := testing.AllocsPerRun(100, func() {
		now = now.Add(step)
		cl.Sim.RunUntil(now)
	})
	reqs := c.Responses() - warm
	if reqs == 0 {
		t.Fatal("measured window answered no requests")
	}
	st := c.Stats()
	if st.Departures == 0 || st.Arrivals <= uint64(128<<10) {
		t.Fatalf("measured window churned no flows: %+v", st)
	}
	if avg != 0 {
		t.Fatalf("%.2f allocs per %v slice (%d requests measured): the million-flow engine must not allocate",
			avg, step, reqs)
	}
}

// TestChurnFootprint bounds the million-flow engine's resident memory
// per flow: the live heap a churn client holds for each admitted flow
// — its flow-table slot and its armed think timer on the wheel slab —
// must stay at or under 100 bytes. It admits 1<<17 flows and subtracts
// a one-flow run, so the cluster's fixed state (caches, rings, the
// NIC's flow-statistics table) cancels out.
func TestChurnFootprint(t *testing.T) {
	const flows = 1 << 17
	footprint := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ccfg := idio.DefaultClusterConfig(1, 1)
		ccfg.Host.Hier.MLCSize = benchMLC
		ccfg.Host.Hier.LLCSize = benchLLC
		ccfg.Host.NIC.RingSize = benchRing
		ccfg.Host.Policy = idiocore.PolicyIDIO
		ccfg.Host.Hier.TimelineBucket = 0
		cl, err := idio.NewCluster(ccfg)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		cl.DUT.AddNF(0, apps.L2Fwd{}, cl.DUT.DefaultFlow(0))
		c := cl.AddChurnClient(0, fnet.ChurnConfig{
			Flows:    n,
			Requests: 1 << 62,
			Think:    250 * sim.Millisecond,
			Seed:     11,
		})
		cl.Start()
		cl.Sim.RunUntil(0) // the start event admits the population
		if got := c.Stats().ActiveFlows; got != n {
			t.Fatalf("admitted %d flows, want %d", got, n)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(cl)
		return after.HeapAlloc - before.HeapAlloc
	}
	base := footprint(1)
	full := footprint(flows)
	perFlow := float64(full-base) / float64(flows-1)
	t.Logf("live heap: %d B for 1 flow, %d B for %d flows: %.1f B per flow", base, full, flows, perFlow)
	if perFlow > 100 {
		t.Fatalf("%.1f B of live heap per resident flow, want <= 100", perFlow)
	}
}

// TestClusterAllocsPerRequestQoS re-runs the steady-state allocation
// gate with the full class pipeline armed: DSCP classification and
// per-class RX counters in the NIC, class-quota placement, and the
// strict-priority/WRR scheduler plus per-class queues on every switch
// egress port. Class accounting must ride the fixed per-class arrays —
// zero allocations per request.
func TestClusterAllocsPerRequestQoS(t *testing.T) {
	ccfg := idio.DefaultClusterConfig(1, 1)
	ccfg.Host.Hier.MLCSize = benchMLC
	ccfg.Host.Hier.LLCSize = benchLLC
	ccfg.Host.NIC.RingSize = benchRing
	ccfg.Host.Policy = idiocore.PolicyIDIO
	ccfg.Host.Hier.TimelineBucket = 0
	ccfg.ServerLink.AQMTarget = 50 * sim.Microsecond
	ccfg.Host.QoS = qos.DefaultConfig()
	cl, err := idio.NewCluster(ccfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl.DUT.AddNF(0, apps.L2Fwd{}, cl.DUT.DefaultFlow(0))
	clcfg := fnet.ClientConfig{
		Mode: fnet.ModeClosed, Outstanding: 8, Requests: 1 << 30,
	}
	clcfg.Flow = cl.ClientFlow(0, 0)
	clcfg.Flow.DSCP = 46 // ef: exercises the strict-priority path
	c := cl.AddRPCClient(0, 0, clcfg)
	cl.Start()

	now := sim.Time(4 * sim.Millisecond)
	cl.Sim.RunUntil(now)
	warm := c.Responses()
	if warm == 0 {
		t.Fatal("warm-up answered no requests")
	}
	const step = 500 * sim.Microsecond
	avg := testing.AllocsPerRun(100, func() {
		now = now.Add(step)
		cl.Sim.RunUntil(now)
	})
	reqs := c.Responses() - warm
	if reqs == 0 {
		t.Fatal("measured window answered no requests")
	}
	if avg != 0 {
		t.Fatalf("%.2f allocs per %v slice (%d requests measured): the armed class pipeline must not allocate",
			avg, step, reqs)
	}
}
