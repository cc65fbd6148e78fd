package idio

import (
	"fmt"
	"testing"

	"idio/internal/apps"
	fnet "idio/internal/net"
	"idio/internal/sim"
)

// BenchmarkClusterSharded measures the host cost of the sharded
// event-domain engine: the same closed-loop RPC workload run on one
// shared simulator (shards=1) and partitioned into event domains that
// one goroutine advances in turn. Results are byte-identical across
// the shard axis (see TestClusterShardedByteIdentical); only host time
// may differ. Small frames keep the per-packet DUT work light, so the
// client- and switch-side event load, which crosses the domain
// mailboxes, dominates as the client count grows.
func BenchmarkClusterSharded(b *testing.B) {
	for _, clients := range []int{1, 4, 16, 64} {
		for _, shards := range []int{1, 4, 8} {
			if shards > clients+2 {
				continue // extra domains would just idle at every barrier
			}
			b.Run(fmt.Sprintf("clients=%d/shards=%d", clients, shards), func(b *testing.B) {
				benchShardedCluster(b, clients, shards)
			})
		}
	}
}

func benchShardedCluster(b *testing.B, clients, shards int) {
	const requestsPerClient = 512
	for i := 0; i < b.N; i++ {
		cfg := DefaultClusterConfig(2, clients)
		cfg.Shards = shards
		// A wider propagation delay widens the conservative lookahead
		// window (fewer, larger epochs); it is identical across the
		// shard axis so comparisons stay apples-to-apples.
		cfg.ClientLink.Delay = 10 * sim.Microsecond
		cfg.ServerLink.Delay = 10 * sim.Microsecond
		cl, err := NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
		}
		for j := 0; j < clients; j++ {
			ccfg := fnet.ClientConfig{
				Mode: fnet.ModeClosed, Outstanding: 16, Requests: requestsPerClient,
				Retry: &fnet.RetryConfig{
					MaxRetries: 2, Backoff: 50 * sim.Microsecond,
					MaxBackoff: 400 * sim.Microsecond, JitterFrac: 0.2,
					Seed: int64(j + 1),
				},
				Timeout: 2 * sim.Millisecond,
			}
			ccfg.Flow = cl.ClientFlow(j, j%2)
			ccfg.Flow.FrameLen = 128
			cl.AddRPCClient(j, j%2, ccfg)
		}
		res, err := cl.Run(RunOpts{Horizon: sim.Duration(200 * sim.Millisecond), UntilIdle: true})
		if err != nil {
			b.Fatal(err)
		}
		if want := uint64(clients * requestsPerClient); res.RPC.Responses != want {
			b.Fatalf("responses %d, want %d", res.RPC.Responses, want)
		}
	}
}
