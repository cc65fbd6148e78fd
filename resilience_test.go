package idio

// Resilience: a faulted fabric must degrade gracefully — requests
// retried, load shed, late responses discarded — without ever leaking
// a packet from the host pool or wedging the topology.

import (
	"reflect"
	"testing"

	"idio/internal/apps"
	"idio/internal/core"
	"idio/internal/fault"
	fnet "idio/internal/net"
	"idio/internal/sim"
)

// runChaosCluster wires a 2-core / 2-client cluster with the full
// resilience stack (retrying clients, AQM, admission control) under a
// scripted fault timeline, and runs it to drain.
func runChaosCluster(t *testing.T, pol core.Policy, tl []fault.Phase) (*Cluster, Results) {
	t.Helper()
	ccfg := DefaultClusterConfig(2, 2)
	ccfg.Host.Policy = pol
	ccfg.Host.NIC.RingSize = 256
	ccfg.Host.Hier.MLCSize = 256 << 10
	ccfg.Host.Hier.LLCSize = 768 << 10
	ccfg.Host.NIC.AdmissionWatermark = 48
	ccfg.Host.Faults = &fault.Config{Timeline: tl}
	ccfg.ClientLink.AQMTarget = 20 * sim.Microsecond
	ccfg.ServerLink.AQMTarget = 20 * sim.Microsecond
	cl, err := NewCluster(ccfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	for c := 0; c < 2; c++ {
		cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
	}
	for i := 0; i < 2; i++ {
		cl.AddRPCClient(i, i, fnet.ClientConfig{
			Mode: fnet.ModeClosed, Outstanding: 16, Requests: 4096,
			Timeout: 100 * sim.Microsecond,
			Retry: &fnet.RetryConfig{
				MaxRetries: 3, Backoff: 50 * sim.Microsecond,
				JitterFrac: 0.25, Seed: int64(13 + i),
			},
		})
	}
	res, err := cl.Run(RunOpts{Horizon: 30 * sim.Millisecond, UntilIdle: true})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	return cl, res
}

// TestLossyFabricNoPoolLeak is the late-response regression gate: a
// timeline that both drops requests on the wire (fabric/down) and
// delays responses past the client timeout (nic/dma-stall) forces
// every hazardous path at once — timeouts, backoff retransmissions,
// and stale responses arriving for superseded attempts. Every packet
// on every path must return to the host pool, and every request must
// resolve to exactly one of answered or failed. Clients draw from the
// host pool, so the gate covers switch- and client-side packets too.
func TestLossyFabricNoPoolLeak(t *testing.T) {
	ms := sim.Millisecond
	tl := []fault.Phase{
		// Down the server downlink: in-flight requests are lost.
		{Layer: "fabric", Kind: "down", Start: sim.Time(1 * ms), Duration: 200 * sim.Microsecond, Target: 0},
		// Stall the DUT's DMA: accepted requests are served late, so
		// their responses race the clients' timeouts and retries.
		{Layer: "nic", Kind: "dma-stall", Start: sim.Time(2 * ms), Duration: 300 * sim.Microsecond, Target: 0},
	}
	for _, pol := range []core.Policy{core.PolicyDDIO, core.PolicyIDIO} {
		cl, res := runChaosCluster(t, pol, tl)
		name := pol.Name()
		for _, c := range cl.Clients {
			if !c.Done() {
				t.Fatalf("%s: client wedged: %+v", name, c.Stats())
			}
		}
		rpc := res.RPC
		if rpc.Timeouts == 0 || rpc.Retries == 0 {
			t.Fatalf("%s: timeline never provoked the retry path: %+v", name, *rpc)
		}
		if rpc.Late == 0 {
			t.Fatalf("%s: no late responses — the stalled-DMA window did not race the timeout: %+v", name, *rpc)
		}
		if got := rpc.Responses + rpc.Failed; got != rpc.Issued {
			t.Fatalf("%s: request accounting broken: responses %d + failed %d != issued %d",
				name, rpc.Responses, rpc.Failed, rpc.Issued)
		}
		if rpc.Issued != 2*4096 {
			t.Fatalf("%s: issued %d, want the full 8192 budget", name, rpc.Issued)
		}
		// The gate: drops, retries, late arrivals, AQM and
		// admission sheds — and still not one packet unaccounted for.
		if res.PktPool.Outstanding != 0 {
			t.Fatalf("%s: pool leak on a lossy fabric: %+v", name, res.PktPool)
		}
	}
}

// TestChaosClusterDeterministicReplay: the fully-faulted resilience
// stack replays bit-identically — fault timelines, backoff jitter,
// AQM, and admission control all draw from seeded/deterministic state.
func TestChaosClusterDeterministicReplay(t *testing.T) {
	tl := []fault.Phase{
		{Layer: "fabric", Kind: "degrade", Start: sim.Time(sim.Millisecond), Duration: 500 * sim.Microsecond, Magnitude: 0.05, Target: 0},
	}
	run := func() RPCResults {
		_, res := runChaosCluster(t, core.PolicyIDIO, tl)
		return *res.RPC
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chaos replay diverged:\n  %+v\n  %+v", a, b)
	}
	if a.Retries == 0 {
		t.Fatal("degraded link never provoked a retry")
	}
}
