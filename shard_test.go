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
	"idio/internal/pkt"
	"idio/internal/qos"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// normalizeShardArtifacts blanks the Results fields that differ between
// shard counts: per-pool recycling counters (a sharded run draws client
// packets from per-domain pools, so the host pool sees fewer Gets) and
// the metric-registry snapshot. The snapshot differs in two ways:
// sharded runs add domain.* progress counters, and per-client timing
// is not shard-invariant. Two clients in different domains that send
// at the same instant can be served in the opposite order to the
// shared simulator's, which moves that client's rpc.c<N>.* series
// (trial2_c5_s5 of TestClusterShardedRandomWorkloads shifts
// rpc.c3.goodput_gbps). WriteStats omits both families, so the dump
// is still compared byte for byte, and every other field must be
// deep-equal.
func normalizeShardArtifacts(r *Results) {
	r.PktPool = pkt.PoolStats{}
	r.Metrics = nil
}

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
	// A drained topology must have returned every packet, in every
	// domain's pool.
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
// the given shard counts and demands deep-equal results and
// byte-equal rendered output.
func requireShardEquivalence(t *testing.T, shardCounts []int, build func(cfg *ClusterConfig), load func(cl *Cluster)) {
	t.Helper()
	ref, refStats, refStr := shardedResults(t, 0, build, load)
	normalizeShardArtifacts(&ref)
	for _, n := range shardCounts {
		got, gotStats, gotStr := shardedResults(t, n, build, load)
		normalizeShardArtifacts(&got)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("shards=%d: results diverge from single-domain run\n  single:  %+v\n  sharded: %+v", n, ref, got)
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

// TestClusterShardedByteIdentical is the tentpole invariant: the same
// workload produces byte-identical results whether the cluster runs on
// one simulator or is partitioned into any number of event domains —
// including more domains than hosts (extra shards clamp) and a domain
// per client.
func TestClusterShardedByteIdentical(t *testing.T) {
	requireShardEquivalence(t, []int{2, 3, 4, 5, 9}, nil, closedLoopLoad)
}

// TestClusterShardedQoSByteIdentical extends the invariant to the
// class-aware data plane: mixed-DSCP clients over scheduled switch
// egress, per-class placement on the DUT, and the per-class histogram
// merge at Collect must all be shard-count-invariant, down to the
// rendered per-class stats keys.
func TestClusterShardedQoSByteIdentical(t *testing.T) {
	dscps := []uint8{46, 34, 8} // ef, af41, cs1
	requireShardEquivalence(t, []int{2, 3, 5},
		func(cfg *ClusterConfig) { cfg.QoS = qos.DefaultConfig() },
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
// generator traffic installed on a client slot's own domain simulator,
// crossing the fabric into the DUT.
func TestClusterShardedGeneratorTraffic(t *testing.T) {
	requireShardEquivalence(t, []int{2, 4, 5}, nil, func(cl *Cluster) {
		for c := 0; c < 2; c++ {
			cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
		}
		for i := 0; i < 3; i++ {
			flow := cl.DUT.DefaultFlow(i % 2)
			traffic.Steady{
				Flow: flow, RateBps: traffic.Gbps(5), Count: 800,
			}.Install(cl.ClientSim(i), cl.ClientIngress(i))
		}
	})
}

// TestClusterShardedFaultTimeline pins phase scheduling across
// domains: a fabric outage on a client uplink (owned by a client
// domain), a degrade on the server downlink (switch domain) and a DRAM
// spike (DUT domain) must perturb a sharded run exactly as they do a
// single-simulator one.
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
// topologies and client mixes, each run single-domain and sharded,
// must agree byte for byte. The seed is fixed so failures reproduce.
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

// TestClusterShardedPendingIdle checks the cross-domain consistency of
// Idle and Pending: both must account for work parked in mailboxes,
// and both must agree with the single-domain cluster after a drain.
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

// TestClusterShardValidation covers the configuration guard rails.
func TestClusterShardValidation(t *testing.T) {
	cfg := DefaultClusterConfig(2, 2)
	cfg.Shards = -1
	if _, err := NewCluster(cfg); err == nil {
		t.Error("negative shard count accepted")
	}
	cfg = DefaultClusterConfig(2, 2)
	cfg.Shards = 4
	cfg.ClientLink.Delay = 0
	if _, err := NewCluster(cfg); err == nil {
		t.Error("sharded cluster accepted with zero link delay (no lookahead window)")
	}
	cfg = DefaultClusterConfig(2, 2)
	cfg.Shards = 4
	cfg.Host.Obs.TraceSampleN = 1
	if _, err := NewCluster(cfg); err == nil {
		t.Error("sharded cluster accepted with packet tracing")
	}
	cfg = DefaultClusterConfig(2, 2)
	cfg.Shards = 4
	cfg.Host.Faults = &fault.Config{FabricFlap: &fault.FabricFlapConfig{}}
	if _, err := NewCluster(cfg); err == nil {
		t.Error("sharded cluster accepted with a random fabric injector")
	}
}

// TestClusterZeroDelayLookahead: an unsharded cluster is one event
// domain with no cross-domain edge, so zero-delay links need no
// lookahead window and the cluster builds and drains; from two domains
// up (every Shards >= 2) the same links are rejected.
func TestClusterZeroDelayLookahead(t *testing.T) {
	for _, shards := range []int{0, 1, 2, 3, 4} {
		cfg := DefaultClusterConfig(2, 2)
		cfg.Shards = shards
		cfg.ClientLink.Delay = 0
		cfg.ServerLink.Delay = 0
		cl, err := NewCluster(cfg)
		if shards > 1 {
			if err == nil {
				t.Errorf("shards=%d: cluster accepted with zero link delay (no lookahead window)", shards)
			}
			continue
		}
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

// TestClusterShardedPhaseDomainMismatch: a timeline phase that names
// the wrong owning domain must fail the run instead of perturbing the
// wrong timeline.
func TestClusterShardedPhaseDomainMismatch(t *testing.T) {
	cfg := DefaultClusterConfig(2, 2)
	cfg.Shards = 4
	cfg.Host.Faults = &fault.Config{Timeline: []fault.Phase{
		// Target 0 is the server downlink, owned by the switch domain.
		{Layer: "fabric", Kind: "down", Start: sim.Time(sim.Millisecond), Duration: sim.Millisecond, Target: 0, Domain: "dut"},
	}}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl.DUT.AddNF(0, apps.L2Fwd{}, cl.DUT.DefaultFlow(0))
	cl.AddRPCClient(0, 0, fnet.ClientConfig{Mode: fnet.ModeClosed, Outstanding: 1, Requests: 8})
	if _, err := cl.Run(RunOpts{Horizon: 5 * sim.Millisecond, UntilIdle: true}); err == nil {
		t.Fatal("Run accepted a phase naming the wrong owning domain")
	}
}

// TestClusterShardedSharedHistRejected: per-client histograms are the
// only safe configuration across domains.
func TestClusterShardedSharedHistRejected(t *testing.T) {
	cfg := DefaultClusterConfig(2, 2)
	cfg.Shards = 4
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddRPCClient accepted a shared histogram in a sharded cluster")
		}
	}()
	cl.AddRPCClient(0, 0, fnet.ClientConfig{
		Mode: fnet.ModeClosed, Outstanding: 1, Requests: 1, Hist: stats.NewHistogram(5),
	})
}
