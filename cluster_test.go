package idio

import (
	"bytes"
	"testing"

	"idio/internal/apps"
	"idio/internal/core"
	fnet "idio/internal/net"
	"idio/internal/sim"
	"idio/internal/stats"
)

// runThreeClientCluster wires the canonical small topology — 2 DUT
// cores running L2Fwd, 3 closed-loop clients, all also recording into
// hist when it is non-nil — runs it to completion, and returns the
// cluster, its results and the full stats dump.
func runThreeClientCluster(t *testing.T, pol core.Policy, hist *stats.Histogram) (*Cluster, Results, []byte) {
	t.Helper()
	ccfg := DefaultClusterConfig(2, 3)
	ccfg.Host.Policy = pol
	cl, err := NewCluster(ccfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	for c := 0; c < 2; c++ {
		cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
	}
	for i := 0; i < 3; i++ {
		cl.AddRPCClient(i, i%2, fnet.ClientConfig{
			Mode: fnet.ModeClosed, Outstanding: 8, Requests: 512, Hist: hist,
		})
	}
	res, err := cl.Run(RunOpts{Horizon: 20 * sim.Millisecond, UntilIdle: true})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	// Every request and echoed response draws from the host pool; a
	// drained topology must have returned them all.
	if res.PktPool.Outstanding != 0 {
		t.Fatalf("packet pool leak after drain: %+v", res.PktPool)
	}
	var buf bytes.Buffer
	if err := res.WriteStats(&buf); err != nil {
		t.Fatalf("WriteStats: %v", err)
	}
	return cl, res, buf.Bytes()
}

// TestClusterEndToEnd checks the full request/response journey:
// every request crosses the fabric, is echoed by the DUT, and returns
// to its issuing client, with fabric conservation holding on every
// link. The aggregate percentiles are the merged per-client
// histograms' whether or not the caller also hands the clients a
// shared histogram of its own.
func TestClusterEndToEnd(t *testing.T) {
	for _, shared := range []*stats.Histogram{nil, stats.NewHistogram(5)} {
		checkClusterEndToEnd(t, shared)
	}
}

func checkClusterEndToEnd(t *testing.T, shared *stats.Histogram) {
	cl, res, _ := runThreeClientCluster(t, core.PolicyIDIO, shared)
	if res.RPC == nil || res.Fabric == nil {
		t.Fatalf("cluster results missing RPC/Fabric sections")
	}
	const want = 3 * 512
	if res.RPC.Issued != want || res.RPC.Responses != want {
		t.Fatalf("issued=%d responses=%d, want %d each (lossless topology)",
			res.RPC.Issued, res.RPC.Responses, want)
	}
	if res.RPC.Timeouts != 0 || res.RPC.Late != 0 {
		t.Fatalf("timeouts=%d late=%d on a lossless topology", res.RPC.Timeouts, res.RPC.Late)
	}
	if res.RPC.GoodputBps <= 0 || res.RPC.P50 <= 0 || res.RPC.P999 < res.RPC.P50 {
		t.Fatalf("degenerate RPC summary: %+v", *res.RPC)
	}
	merged := stats.NewHistogram(5)
	for _, c := range cl.Clients {
		merged.Merge(c.Hist())
	}
	if res.RPC.P50 != merged.Quantile(0.50) || res.RPC.P99 != merged.Quantile(0.99) {
		t.Fatalf("aggregate p50=%v p99=%v, want the merged per-client p50=%v p99=%v",
			res.RPC.P50, res.RPC.P99, merged.Quantile(0.50), merged.Quantile(0.99))
	}
	// The registry's aggregate rpc.* metrics (what -stats and -json
	// print) read the same summary as Results.RPC.
	metric := map[string]float64{}
	for _, m := range res.Metrics {
		metric[m.Name] = m.Value
	}
	for name, want := range map[string]float64{
		"rpc.issued": float64(res.RPC.Issued),
		"rpc.p50_us": res.RPC.P50.Microseconds(),
		"rpc.p99_us": res.RPC.P99.Microseconds(),
	} {
		if got, ok := metric[name]; !ok || got != want {
			t.Fatalf("registry %s = %v (present %v), want Results.RPC's %v", name, got, ok, want)
		}
	}
	if shared != nil && shared.Count() != want {
		t.Fatalf("caller's histogram recorded %d of %d responses", shared.Count(), want)
	}
	for _, l := range res.Fabric.Links {
		st := l.Stats
		if st.TailDrops != 0 || st.DownDrops != 0 {
			t.Fatalf("link %s dropped (tail=%d down=%d) on an uncongested run", l.Name, st.TailDrops, st.DownDrops)
		}
		if st.Delivered != st.TxPackets {
			t.Fatalf("link %s: delivered %d of %d accepted after drain", l.Name, st.Delivered, st.TxPackets)
		}
	}
	// Requests and responses each cross the switch once.
	if got := res.Fabric.Switch.Forwarded; got != 2*want {
		t.Fatalf("switch forwarded %d, want %d (each request + response once)", got, 2*want)
	}
	if res.Fabric.Switch.NoRoute != 0 || res.Fabric.Switch.ParseDrops != 0 {
		t.Fatalf("switch drops on a fully-routed topology: %+v", res.Fabric.Switch)
	}
}

// TestClusterDeterministicReplay runs the 3-client topology twice per
// policy and requires byte-identical stats dumps — the fabric must
// inherit the simulator's bit-identical replay guarantee.
func TestClusterDeterministicReplay(t *testing.T) {
	for _, pol := range []core.Policy{core.PolicyDDIO, core.PolicyIDIO} {
		_, _, a := runThreeClientCluster(t, pol, nil)
		_, _, b := runThreeClientCluster(t, pol, nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: replay diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", pol.Name(), a, b)
		}
	}
}
