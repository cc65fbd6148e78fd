package idio

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"idio/internal/apps"
	"idio/internal/fault"
	fnet "idio/internal/net"
	"idio/internal/obs"
	"idio/internal/qos"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// shardedResults builds and runs the given cluster workload at one
// shard count and returns the results plus the rendered stats dump
// and human summary.
func shardedResults(t *testing.T, shards int, build func(cfg *ClusterConfig), load func(cl *Cluster)) (Results, []byte, string) {
	t.Helper()
	cfg := DefaultClusterConfig(2, 3)
	cfg.Shards = shards
	if build != nil {
		build(&cfg)
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster(shards=%d): %v", shards, err)
	}
	load(cl)
	res, err := cl.Run(RunOpts{Horizon: 20 * sim.Millisecond, UntilIdle: true})
	if err != nil {
		t.Fatalf("Run(shards=%d): %v", shards, err)
	}
	// A drained topology must have returned every packet to the pool.
	if res.PktPool.Outstanding != 0 {
		t.Fatalf("shards=%d: host pool leak: %+v", shards, res.PktPool)
	}
	var buf bytes.Buffer
	if err := res.WriteStats(&buf); err != nil {
		t.Fatalf("WriteStats: %v", err)
	}
	return res, buf.Bytes(), res.String()
}

// requireShardEquivalence runs the workload unsharded and at each of
// the given shard counts and demands deep-equal results (the registry
// snapshot, per-client series and pool counters included) and
// byte-equal rendered output.
func requireShardEquivalence(t *testing.T, shardCounts []int, build func(cfg *ClusterConfig), load func(cl *Cluster)) {
	t.Helper()
	ref, refStats, refStr := shardedResults(t, 0, build, load)
	for _, n := range shardCounts {
		got, gotStats, gotStr := shardedResults(t, n, build, load)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("shards=%d: results diverge from the unsharded run\n  unsharded: %+v\n  sharded:   %+v", n, ref, got)
		}
		if !bytes.Equal(refStats, gotStats) {
			t.Errorf("shards=%d: stats dump not byte-identical", n)
		}
		if refStr != gotStr {
			t.Errorf("shards=%d: summary not byte-identical:\n--- single\n%s\n--- sharded\n%s", n, refStr, gotStr)
		}
	}
}

// closedLoopLoad is the canonical three-client RPC workload.
func closedLoopLoad(cl *Cluster) {
	for c := 0; c < 2; c++ {
		cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
	}
	for i := 0; i < 3; i++ {
		cl.AddRPCClient(i, i%2, fnet.ClientConfig{
			Mode: fnet.ModeClosed, Outstanding: 8, Requests: 512,
		})
	}
}

// TestClusterShardedByteIdentical: Shards has no effect on results,
// whatever its value relative to the host count.
func TestClusterShardedByteIdentical(t *testing.T) {
	requireShardEquivalence(t, []int{2, 3, 4, 5, 9}, nil, closedLoopLoad)
}

// TestClusterShardedQoSByteIdentical extends the invariant to the
// class-aware data plane: mixed-DSCP clients over scheduled switch
// egress, per-class placement on the DUT, and the per-class histogram
// merge at Collect, down to the rendered per-class stats keys.
func TestClusterShardedQoSByteIdentical(t *testing.T) {
	dscps := []uint8{46, 34, 8} // ef, af41, cs1
	requireShardEquivalence(t, []int{2, 3, 5},
		func(cfg *ClusterConfig) { cfg.Host.QoS = qos.DefaultConfig() },
		func(cl *Cluster) {
			for c := 0; c < 2; c++ {
				cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
			}
			for i := 0; i < 3; i++ {
				ccfg := fnet.ClientConfig{
					Mode: fnet.ModeClosed, Outstanding: 8, Requests: 512,
				}
				ccfg.Flow = cl.ClientFlow(i, i%2)
				ccfg.Flow.DSCP = dscps[i]
				cl.AddRPCClient(i, i%2, ccfg)
			}
		})
}

// TestClusterShardedGeneratorTraffic covers the other ingress path:
// generator traffic installed on a client slot's uplink, crossing the
// fabric into the DUT.
func TestClusterShardedGeneratorTraffic(t *testing.T) {
	requireShardEquivalence(t, []int{2, 4, 5}, nil, func(cl *Cluster) {
		for c := 0; c < 2; c++ {
			cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
		}
		for i := 0; i < 3; i++ {
			flow := cl.DUT.DefaultFlow(i % 2)
			traffic.Steady{
				Flow: flow, RateBps: traffic.Gbps(5), Count: 800,
			}.Install(cl.Sim, cl.ClientIngress(i))
		}
	})
}

// TestClusterShardedFaultTimeline: a fabric outage on a client
// uplink, a degrade on the server downlink and a DRAM spike perturb a
// sharded run exactly as they do an unsharded one.
func TestClusterShardedFaultTimeline(t *testing.T) {
	timeline := []fault.Phase{
		{Layer: "fabric", Kind: "down", Start: sim.Time(2 * sim.Millisecond), Duration: sim.Millisecond, Target: 2},
		{Layer: "fabric", Kind: "degrade", Start: sim.Time(4 * sim.Millisecond), Duration: sim.Millisecond, Magnitude: 0.25, Target: 0},
		{Layer: "dram", Kind: "spike", Start: sim.Time(6 * sim.Millisecond), Duration: 2 * sim.Millisecond, Magnitude: 200},
	}
	build := func(cfg *ClusterConfig) {
		cfg.Host.Faults = &fault.Config{Timeline: timeline}
	}
	load := func(cl *Cluster) {
		for c := 0; c < 2; c++ {
			cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
		}
		for i := 0; i < 3; i++ {
			cl.AddRPCClient(i, i%2, fnet.ClientConfig{
				Mode: fnet.ModeClosed, Outstanding: 8, Requests: 256,
				Timeout: 500 * sim.Microsecond,
			})
		}
	}
	requireShardEquivalence(t, []int{2, 5}, build, load)
}

// TestClusterShardedRandomWorkloads is the property test: randomized
// topologies and client mixes, each run unsharded and sharded, must
// agree byte for byte, per-client metrics included. The seed is fixed
// so failures reproduce.
func TestClusterShardedRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	rng := rand.New(rand.NewSource(0x1D10))
	for trial := 0; trial < 6; trial++ {
		clients := 1 + rng.Intn(6)
		cores := 1 + rng.Intn(2)
		shards := 2 + rng.Intn(clients+2)
		type clientSpec struct {
			core int
			cfg  fnet.ClientConfig
		}
		specs := make([]clientSpec, clients)
		for i := range specs {
			cc := fnet.ClientConfig{Requests: uint64(64 + rng.Intn(448))}
			if rng.Intn(2) == 0 {
				cc.Mode, cc.Outstanding = fnet.ModeClosed, 1+rng.Intn(16)
			} else {
				cc.Mode, cc.RateBps = fnet.ModeOpen, traffic.Gbps(float64(1+rng.Intn(8)))
			}
			if rng.Intn(2) == 0 {
				cc.Timeout = sim.Duration(200+rng.Intn(800)) * sim.Microsecond
			}
			specs[i] = clientSpec{core: rng.Intn(cores), cfg: cc}
		}
		frameLen := []int{64, 256, 1024, 1514}[rng.Intn(4)]

		t.Run(fmt.Sprintf("trial%d_c%d_s%d", trial, clients, shards), func(t *testing.T) {
			build := func(cfg *ClusterConfig) {
				cfg.Host = DefaultConfig(cores)
				cfg.Clients = clients
			}
			load := func(cl *Cluster) {
				for c := 0; c < cores; c++ {
					cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
				}
				for i, sp := range specs {
					cc := sp.cfg
					cc.Flow = cl.ClientFlow(i, sp.core)
					cc.Flow.FrameLen = frameLen
					cl.AddRPCClient(i, sp.core, cc)
				}
			}
			requireShardEquivalence(t, []int{shards}, build, load)
		})
	}
}

// TestClusterRunOptsAPI exercises the consolidated Run entry point in
// both modes on the same workload: repeated runs are deterministic and
// a fixed horizon stops exactly on time.
func TestClusterRunOptsAPI(t *testing.T) {
	mk := func() *Cluster {
		cl, err := NewCluster(DefaultClusterConfig(2, 3))
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		closedLoopLoad(cl)
		return cl
	}
	a, err := mk().Run(RunOpts{Horizon: 20 * sim.Millisecond, UntilIdle: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := mk().Run(RunOpts{Horizon: 20 * sim.Millisecond, UntilIdle: true})
	if err != nil {
		t.Fatalf("Run (repeat): %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identical UntilIdle runs diverge")
	}
	c, err := mk().Run(RunOpts{Horizon: 5 * sim.Millisecond})
	if err != nil {
		t.Fatalf("Run (fixed horizon): %v", err)
	}
	if c.Now != sim.Time(5*sim.Millisecond) {
		t.Errorf("fixed-horizon run stopped at %v", c.Now)
	}
}

// TestClusterShardedPendingIdle checks Idle and Pending before and
// after a drain, unsharded and sharded.
func TestClusterShardedPendingIdle(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cfg := DefaultClusterConfig(2, 3)
		cfg.Shards = shards
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		closedLoopLoad(cl)
		if cl.Idle() {
			t.Errorf("shards=%d: cluster idle before running with queued work", shards)
		}
		if _, err := cl.Run(RunOpts{Horizon: 20 * sim.Millisecond, UntilIdle: true}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !cl.Idle() {
			t.Errorf("shards=%d: cluster not idle after drain", shards)
		}
	}
}

// TestClusterShardValidation covers the configuration guard rails: a
// negative shard count, and a negative link delay, which would
// schedule deliveries in the past.
func TestClusterShardValidation(t *testing.T) {
	for name, mut := range map[string]func(*ClusterConfig){
		"negative shard count":  func(c *ClusterConfig) { c.Shards = -1 },
		"negative client delay": func(c *ClusterConfig) { c.ClientLink.Delay = -5 * sim.Microsecond },
		"negative server delay": func(c *ClusterConfig) { c.ServerLink.Delay = -1 },
	} {
		cfg := DefaultClusterConfig(2, 2)
		mut(&cfg)
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestClusterZeroDelayLookahead: zero-delay links build and drain at
// every shard count.
func TestClusterZeroDelayLookahead(t *testing.T) {
	for _, shards := range []int{0, 1, 2, 3, 4} {
		cfg := DefaultClusterConfig(2, 2)
		cfg.Shards = shards
		cfg.ClientLink.Delay = 0
		cfg.ServerLink.Delay = 0
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatalf("shards=%d: NewCluster: %v", shards, err)
		}
		for c := 0; c < 2; c++ {
			cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
			cl.AddRPCClient(c, c, fnet.ClientConfig{Mode: fnet.ModeClosed, Outstanding: 4, Requests: 64})
		}
		res, err := cl.Run(RunOpts{Horizon: 20 * sim.Millisecond, UntilIdle: true})
		if err != nil {
			t.Fatalf("shards=%d: Run: %v", shards, err)
		}
		if !cl.Idle() || res.RPC.Responses != 128 || res.PktPool.Outstanding != 0 {
			t.Fatalf("shards=%d: idle=%v responses=%d pool outstanding=%d, want a drained run with 128 responses",
				shards, cl.Idle(), res.RPC.Responses, res.PktPool.Outstanding)
		}
	}
}

// eventLog is a trace sink that keeps every event.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Emit(e obs.Event) { l.events = append(l.events, e) }
func (l *eventLog) Close() error     { return nil }

// TestClusterShardedObservability runs a Shards: 4 cluster with
// packet tracing, periodic metric snapshots, a random fabric flap
// injector and one histogram shared by every client, and demands the
// unsharded run's results, trace and shared histogram.
func TestClusterShardedObservability(t *testing.T) {
	type run struct {
		res   Results
		trace []obs.Event
		p99   sim.Duration
		count uint64
	}
	observed := func(shards int) run {
		cfg := DefaultClusterConfig(2, 3)
		cfg.Shards = shards
		cfg.Host.Obs.TraceSampleN = 7
		cfg.Host.Obs.MetricsInterval = 200 * sim.Microsecond
		cfg.Host.Faults = &fault.Config{Seed: 3, FabricFlap: &fault.FabricFlapConfig{
			Period: 150 * sim.Microsecond, Down: 40 * sim.Microsecond,
		}}
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatalf("shards=%d: NewCluster: %v", shards, err)
		}
		log := &eventLog{}
		cl.DUT.Observe().SetSink(log)
		hist := stats.NewHistogram(5)
		for c := 0; c < 2; c++ {
			cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
		}
		for i := 0; i < 3; i++ {
			cl.AddRPCClient(i, i%2, fnet.ClientConfig{
				Mode: fnet.ModeClosed, Outstanding: 8, Requests: 512,
				Timeout: 300 * sim.Microsecond, Hist: hist,
			})
		}
		res, err := cl.Run(RunOpts{Horizon: 50 * sim.Millisecond, UntilIdle: true})
		if err != nil {
			t.Fatalf("shards=%d: Run: %v", shards, err)
		}
		if !cl.Idle() || res.PktPool.Outstanding != 0 {
			t.Fatalf("shards=%d: idle=%v pool outstanding=%d, want a drained run",
				shards, cl.Idle(), res.PktPool.Outstanding)
		}
		snaps := 0
		if res.MetricSeries != nil {
			snaps = res.MetricSeries.Len()
		}
		if snaps == 0 || len(log.events) == 0 || res.Faults.FabricFlaps == 0 || res.RPC.Timeouts == 0 {
			t.Fatalf("shards=%d: %d snapshots, %d trace events, %d fabric flaps, %d timeouts: every observer and the injector must fire",
				shards, snaps, len(log.events), res.Faults.FabricFlaps, res.RPC.Timeouts)
		}
		return run{res: res, trace: log.events, p99: hist.Quantile(0.99), count: hist.Count()}
	}
	ref := observed(0)
	got := observed(4)
	if !reflect.DeepEqual(ref.res, got.res) {
		t.Errorf("results diverge\n  unsharded: %+v\n  sharded:   %+v", ref.res, got.res)
	}
	if !reflect.DeepEqual(ref.trace, got.trace) {
		t.Errorf("traces diverge: %d events unsharded, %d sharded", len(ref.trace), len(got.trace))
	}
	if ref.p99 != got.p99 || ref.count != got.count {
		t.Errorf("shared histogram diverges: p99 %v/%v, %d/%d samples", ref.p99, got.p99, ref.count, got.count)
	}
}
