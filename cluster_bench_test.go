package idio

import (
	"fmt"
	"testing"

	"idio/internal/apps"
	fnet "idio/internal/net"
	"idio/internal/sim"
)

// BenchmarkCluster measures the host cost of a closed-loop RPC
// fan-in as the client count grows. Small frames keep the per-packet
// DUT work light, so the client- and switch-side events dominate at
// the larger counts.
func BenchmarkCluster(b *testing.B) {
	for _, clients := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchCluster(b, clients)
		})
	}
}

func benchCluster(b *testing.B, clients int) {
	const requestsPerClient = 512
	for i := 0; i < b.N; i++ {
		cfg := DefaultClusterConfig(2, clients)
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
