package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"idio"
	"idio/internal/apps"
	idiocore "idio/internal/core"
	fnet "idio/internal/net"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// spec is what a workload is built from: the seed that generates its
// inputs, and a scale that shrinks every size (1 for the benchmark,
// far less for the smoke test).
type spec struct {
	seed  int64
	scale float64
}

// n scales a full-size count, keeping at least min.
func (s spec) n(full, min int) int {
	v := int(float64(full) * s.scale)
	if v < min {
		return min
	}
	return v
}

// instance is one freshly built simulation of a workload, set up and
// ready for its measured run.
type instance interface {
	// run executes the measured run as a series of RunUntil slices.
	run(p *probe)
	// collect summarises the finished run and checks its outputs.
	collect() outcome
}

// outcome is what one measured run simulated. Everything in it is
// deterministic for a fixed seed.
type outcome struct {
	// ops are simulated packets received by the DUT NIC (burst_idio) or
	// answered requests (the other workloads).
	ops       uint64
	attempted uint64
	failed    uint64
	// events counts simulator events in the measured run, all domains.
	events uint64
	// sim holds the sim_* end-to-end metrics and every exact per-layer
	// count and ratio.
	sim values
	// stats is the Results.WriteStats dump.
	stats string
	errs  []error
}

type values map[string]float64

// workload is one named set of inputs.
type workload struct {
	name  string
	build func(spec, *probe) instance
	// twin names a workload that must produce a byte-identical stats
	// dump from the same seed.
	twin string
}

var workloads = []workload{
	{name: "burst_idio", build: buildBurst},
	{name: "rpc_fanin", build: func(s spec, p *probe) instance { return buildRPC(s, p, 1) }},
	{name: "rpc_fanin_sharded", build: func(s spec, p *probe) instance { return buildRPC(s, p, 2) }, twin: "rpc_fanin"},
	{name: "churn_1m", build: buildChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// statsDump renders the run's stats file.
func statsDump(res idio.Results) string {
	var b bytes.Buffer
	_ = res.WriteStats(&b) // a bytes.Buffer write cannot fail
	return b.String()
}

// metric reads one registry sample from the run's snapshot (0 when the
// run did not register it).
func metric(res idio.Results, name string) float64 {
	for _, m := range res.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// metricSum adds every registry sample whose name has the prefix and
// suffix.
func metricSum(res idio.Results, prefix, suffix string) float64 {
	var sum float64
	for _, m := range res.Metrics {
		if strings.HasPrefix(m.Name, prefix) && strings.HasSuffix(m.Name, suffix) {
			sum += m.Value
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nicDrops counts every packet the DUT NIC refused.
func nicDrops(res idio.Results) uint64 {
	n := res.NIC
	return n.RxDrops + n.PoolDrops + n.LinkDownDrops + n.AdmissionDrops + n.MisSteers
}

// hostLayerValues fills the exact per-layer counts of the DUT host: NIC,
// hierarchy and DRAM, IDIO controller and prefetchers, cores and the
// packet pool. span is the simulated length of the measured run.
func hostLayerValues(v values, res idio.Results, ops uint64, span sim.Duration) {
	rx := float64(res.NIC.RxPackets)
	h := res.Hier
	drops := float64(nicDrops(res))
	v["nic.dma_writes_per_pkt"] = ratio(float64(res.NIC.DMAWrites), rx)
	v["nic.dma_reads_per_pkt"] = ratio(float64(res.NIC.DMAReads), rx)
	v["nic.rx_drop_frac"] = ratio(drops, rx+drops)
	v["nic.flows_tracked"] = metric(res, "nic.flows_tracked")
	v["nic.flow_refusals"] = metric(res, "nic.flow_refusals")
	v["hier.mlc_wb_per_pkt"] = ratio(float64(h.MLCWriteback), rx)
	v["hier.llc_wb_per_pkt"] = ratio(float64(h.LLCWriteback), rx)
	v["hier.mlc_inval_per_pkt"] = ratio(float64(h.MLCInval), rx)
	v["hier.self_inval_per_pkt"] = ratio(float64(h.SelfInval), rx)
	v["hier.ddio_alloc_per_pkt"] = ratio(float64(h.DDIOAlloc), rx)
	v["hier.prefetch_useful_frac"] = ratio(float64(h.PrefetchFill), float64(h.PrefetchFill+h.PrefetchDrop))
	demand := h.DemandL1Hit + h.DemandMLCHit + h.DemandLLCHit + h.DemandDRAM
	v["hier.demand_onchip_hit_rate"] = ratio(float64(demand-h.DemandDRAM), float64(demand))
	v["dram.reads_per_pkt"] = ratio(float64(res.DRAMReads), rx)
	v["dram.writes_per_pkt"] = ratio(float64(res.DRAMWrites), rx)
	v["dram.row_hit_rate"] = ratio(float64(res.DRAMRowHits), float64(res.DRAMRowHits+res.DRAMRowMisses))
	steerMLC := metric(res, "ctrl.steer_mlc")
	v["ctrl.steer_mlc_frac"] = ratio(steerMLC, steerMLC+metric(res, "ctrl.steer_llc")+metric(res, "ctrl.steer_dram"))
	v["ctrl.bursts_seen"] = metric(res, "classifier.bursts_seen")
	issued := metricSum(res, "prefetch.core", ".issued")
	queued := metricSum(res, "prefetch.core", ".hints_queued")
	dropped := metricSum(res, "prefetch.core", ".hints_dropped")
	throttled := metricSum(res, "prefetch.core", ".throttled")
	v["prefetch.issued_per_pkt"] = ratio(issued, rx)
	v["prefetch.hints_dropped_frac"] = ratio(dropped, queued+dropped)
	v["prefetch.throttled_frac"] = ratio(throttled, issued+throttled)
	var busy sim.Duration
	for _, c := range res.Cores {
		busy += c.BusyTime
	}
	v["cpu.busy_frac"] = ratio(float64(busy), float64(span)*float64(len(res.Cores)))
	v["sim_mlc_wb_per_pkt"] = v["hier.mlc_wb_per_pkt"]
	v["sim_dram_wr_per_pkt"] = v["dram.writes_per_pkt"]
	v["pkt.pool_allocs_per_op"] = ratio(float64(res.PktPool.Allocs), float64(ops))
	v["pkt.pool_high_water"] = float64(res.PktPool.HighWater)
}

// latencyValues records the modelled per-packet service latency at the
// DUT (NIC arrival to NF completion, the paper's Fig. 12 latency) of
// the slowest core. Cores keep raw samples, so the percentiles are
// exact; the clients' end-to-end histograms have 3% buckets, too coarse
// to tell seeds of a saturated closed loop apart.
func latencyValues(v values, res idio.Results) {
	v["sim_p50_us"] = res.P50Across().Microseconds()
	v["sim_p99_us"] = res.P99Across().Microseconds()
	v["sim.latency_samples"] = float64(res.TotalProcessed())
}

// finish fills what every workload derives the same way.
func (o *outcome) finish(pendingPeak int) {
	o.sim["sim.events_per_op"] = ratio(float64(o.events), float64(o.ops))
	o.sim["sim.pending_peak"] = float64(pendingPeak)
	o.sim["failed_frac"] = ratio(float64(o.failed), float64(o.attempted))
	o.sim["delivered_frac"] = 1 - o.sim["failed_frac"]
	if _, ok := o.sim["sim.domain_event_share.dut"]; !ok {
		o.sim["sim.domain_event_share.dut"] = 1
	}
	if o.ops == 0 {
		o.errs = append(o.errs, fmt.Errorf("the run completed no operation"))
	}
	if o.failed != 0 {
		o.errs = append(o.errs, fmt.Errorf("%d of %d operations failed; the workload is sized so none do", o.failed, o.attempted))
	}
}

// hostConfig is the DUT every workload runs: two cores under the IDIO
// policy with the caches scaled as in the paper's gem5 runs (256 KiB
// MLC, 768 KiB LLC), so one 1024-entry ring of MTU frames overflows
// them.
func hostConfig() idio.Config {
	cfg := idio.DefaultConfig(2)
	cfg.Hier.MLCSize = 256 << 10
	cfg.Hier.LLCSize = 768 << 10
	cfg.NIC.RingSize = 1024
	cfg.Policy = idiocore.PolicyIDIO
	return cfg
}

// --- burst_idio -------------------------------------------------------

const (
	burstPeriod = 4 * sim.Millisecond
	burstJitter = 500 * sim.Microsecond
	burstCount  = 24
)

// burstInst is the paper's Fig. 9 regime on one host: two TouchDrop
// cores with scaled caches receive open-loop 100 Gbps bursts of one
// ring each, spaced so every burst drains before the next.
type burstInst struct {
	sys     *idio.System
	offered uint64
	bursts  int
	peak    int
	errs    []error
}

func buildBurst(s spec, p *probe) instance {
	cfg := hostConfig()
	sys := idio.NewSystem(cfg)
	in := &burstInst{sys: sys, bursts: s.n(burstCount, 2)}
	rng := rand.New(rand.NewSource(s.seed))
	gap := traffic.InterArrival(traffic.Gbps(100), 1514)
	rx := p.receiver(sys.NIC)
	for c := 0; c < cfg.NumCores(); c++ {
		flow := sys.DefaultFlow(c)
		sys.AddNF(c, p.app(apps.TouchDrop{}), flow)
		// Each burst starts at a seeded offset within its period, so the
		// two cores' bursts overlap by a different amount every time.
		tr := traffic.Trace{Flow: flow}
		for b := 0; b < in.bursts; b++ {
			start := sim.Time(b)*sim.Time(burstPeriod) + sim.Time(rng.Int63n(int64(burstJitter)))
			for i := 0; i < cfg.NIC.RingSize; i++ {
				tr.Times = append(tr.Times, start.Add(sim.Duration(i)*gap))
			}
		}
		in.offered += tr.Install(sys.Sim, rx)
	}
	sys.Start()
	return in
}

func (in *burstInst) run(p *probe) {
	for b := 1; b <= in.bursts; b++ {
		if n := in.sys.Sim.Pending(); n > in.peak {
			in.peak = n
		}
		p.slice(func() { in.sys.Sim.RunUntil(sim.Time(b) * sim.Time(burstPeriod)) })
		for q := 0; q < in.sys.Cfg.NIC.NumQueues; q++ {
			if occ := in.sys.NIC.Ring(q).Occupancy(); occ != 0 {
				in.errs = append(in.errs, fmt.Errorf("burst %d: ring %d still holds %d packets at the next burst", b, q, occ))
			}
		}
	}
}

func (in *burstInst) collect() outcome {
	res := in.sys.Collect()
	o := outcome{
		ops:       res.NIC.RxPackets,
		attempted: in.offered,
		failed:    nicDrops(res),
		events:    in.sys.Sim.Processed(),
		sim:       values{},
		stats:     statsDump(res),
		errs:      in.errs,
	}
	hostLayerValues(o.sim, res, o.ops, sim.Duration(res.Now))
	latencyValues(o.sim, res)
	o.sim["sim_goodput_gbps"] = float64(res.NIC.RxBytes) * 8 / sim.Duration(res.Now).Seconds() / 1e9
	if got := res.NIC.RxPackets + nicDrops(res); got != in.offered {
		o.errs = append(o.errs, fmt.Errorf("offered %d packets but rx+drops = %d", in.offered, got))
	}
	if res.TotalProcessed() != res.NIC.RxPackets {
		o.errs = append(o.errs, fmt.Errorf("cores processed %d of %d received packets", res.TotalProcessed(), res.NIC.RxPackets))
	}
	if res.PktPool.Outstanding != 0 {
		o.errs = append(o.errs, fmt.Errorf("packet pool holds %d packets after drain", res.PktPool.Outstanding))
	}
	o.finish(in.peak)
	return o
}

// --- rpc_fanin and rpc_fanin_sharded -----------------------------------

const (
	rpcClients     = 64
	rpcOutstanding = 16   // mean window; each client's is drawn from ±2
	rpcRequests    = 1500 // per client
	rpcFrame       = 128
	rpcStartSpread = 20 * sim.Microsecond
	// rpcCheckpoint is Cluster.Run's until-idle checkpoint period.
	rpcCheckpoint = 100 * sim.Microsecond
	rpcHorizon    = 500 * sim.Millisecond
)

// rpcInst is a 64-client closed-loop RPC fan-in onto two L2Fwd cores.
type rpcInst struct {
	cl       *idio.Cluster
	shards   int
	requests uint64 // per client
	peak     int
	drained  bool
}

func buildRPC(s spec, p *probe, shards int) instance {
	ccfg := idio.DefaultClusterConfig(2, rpcClients)
	ccfg.Host = hostConfig()
	ccfg.Shards = shards
	cl, err := idio.NewCluster(ccfg)
	if err != nil {
		panic(err) // the configuration is fixed; an error is a bug
	}
	for c := 0; c < ccfg.Host.NumCores(); c++ {
		cl.DUT.AddNF(c, p.app(apps.L2Fwd{}), cl.DUT.DefaultFlow(c))
	}
	rng := rand.New(rand.NewSource(s.seed))
	requests := uint64(s.n(rpcRequests, 8))
	for i := 0; i < rpcClients; i++ {
		flow := cl.ClientFlow(i, i%2)
		flow.FrameLen = rpcFrame
		// The DUT saturates, so every request waits behind the others
		// in flight on its core; seeded windows make that count differ
		// between seeds. Clients start at seeded instants spread over a
		// few microseconds, so their first windows do not collide at the
		// switch, and draw retry jitter from seeded streams.
		cl.AddRPCClient(i, i%2, fnet.ClientConfig{
			Flow:        flow,
			Mode:        fnet.ModeClosed,
			Outstanding: rpcOutstanding - 2 + rng.Intn(5),
			Requests:    requests,
			Start:       sim.Time(rng.Int63n(int64(rpcStartSpread))),
			Retry:       &fnet.RetryConfig{MaxRetries: 3, JitterFrac: 0.2, Seed: rng.Int63()},
		})
	}
	cl.Start()
	return &rpcInst{cl: cl, shards: shards, requests: requests}
}

func (in *rpcInst) run(p *probe) {
	if in.shards > 1 {
		// Only Run can advance a sharded cluster; it stops at the first
		// idle checkpoint, the same instant the loop below stops at.
		in.peak = in.cl.Pending()
		p.slice(func() { _, _ = in.cl.Run(idio.RunOpts{Horizon: rpcHorizon, UntilIdle: true}) }) // the watchdog is off, so Run cannot fail
		in.drained = in.cl.Idle()
		return
	}
	for t := rpcCheckpoint; t <= rpcHorizon; t += rpcCheckpoint {
		if n := in.cl.Pending(); n > in.peak {
			in.peak = n
		}
		p.slice(func() { in.cl.Sim.RunUntil(sim.Time(t)) })
		if in.cl.Idle() {
			in.drained = true
			return
		}
	}
}

func (in *rpcInst) collect() outcome {
	res := in.cl.Collect()
	rpc := res.RPC
	o := outcome{
		ops:       rpc.Responses,
		attempted: rpc.Issued,
		failed:    rpc.Timeouts + rpc.Failed + nicDrops(res),
		sim:       values{},
		stats:     statsDump(res),
	}
	if in.shards > 1 {
		var total float64
		for _, d := range domains {
			total += metric(res, "domain."+d+".events")
		}
		for _, d := range domains {
			o.sim["sim.domain_event_share."+d] = ratio(metric(res, "domain."+d+".events"), total)
		}
		o.events = uint64(total)
		o.sim["sim.epochs_per_op"] = ratio(metric(res, "domain.epochs"), float64(o.ops))
	} else {
		o.events = in.cl.Sim.Processed()
	}
	span := sim.Duration(res.Now)
	hostLayerValues(o.sim, res, o.ops, span)
	latencyValues(o.sim, res)
	o.sim["sim_goodput_gbps"] = rpc.GoodputBps / 1e9
	fabricValues(o.sim, res, span)
	o.sim["net.client_timeout_frac"] = ratio(float64(rpc.Timeouts), float64(rpc.Issued))
	o.sim["net.client_retries_per_req"] = ratio(float64(rpc.Retries), float64(rpc.Issued))
	if !in.drained {
		o.errs = append(o.errs, fmt.Errorf("the cluster did not drain within %v", rpcHorizon))
	}
	if rpc.Issued != rpc.Responses+rpc.Failed {
		o.errs = append(o.errs, fmt.Errorf("issued %d requests but responses+failed = %d", rpc.Issued, rpc.Responses+rpc.Failed))
	}
	if want := rpcClients * in.requests; rpc.Issued != want {
		o.errs = append(o.errs, fmt.Errorf("clients issued %d requests, want %d", rpc.Issued, want))
	}
	if res.PktPool.Outstanding != 0 {
		o.errs = append(o.errs, fmt.Errorf("packet pool holds %d packets after drain", res.PktPool.Outstanding))
	}
	for _, l := range res.Fabric.Links {
		if l.Stats.Delivered != l.Stats.TxPackets {
			o.errs = append(o.errs, fmt.Errorf("link %s delivered %d of %d packets", l.Name, l.Stats.Delivered, l.Stats.TxPackets))
		}
	}
	o.finish(in.peak)
	return o
}

// fabricValues fills the network layer's counts.
func fabricValues(v values, res idio.Results, span sim.Duration) {
	f := res.Fabric
	var hwm, drops uint64
	for _, l := range f.Links {
		if q := uint64(l.Stats.QueueHighWater); q > hwm {
			hwm = q
		}
		drops += l.Stats.TailDrops + l.Stats.DownDrops + l.Stats.AQMDrops
		if l.Name == "srv.down" {
			v["net.link_busy_frac"] = ratio(float64(l.Stats.BusyTime), float64(span))
		}
	}
	v["net.link_queue_hwm_max"] = float64(hwm)
	v["net.link_drops"] = float64(drops)
	var reqs float64
	if res.RPC != nil {
		reqs = float64(res.RPC.Issued)
	} else if res.Churn != nil {
		reqs = float64(res.Churn.Issued)
	}
	v["net.switch_forwarded_per_req"] = ratio(float64(f.Switch.Forwarded), reqs)
}

// --- churn_1m ------------------------------------------------------------

const (
	churnFlows   = 1_000_000
	churnThink   = 1 * sim.Second
	churnHorizon = 240 * sim.Millisecond
	churnChunk   = 2 * sim.Millisecond
)

// churnInst is one churn client holding a million concurrent flows
// against two L2Fwd cores.
type churnInst struct {
	cl      *idio.Cluster
	horizon sim.Time
	events0 uint64
	peak    int
}

func buildChurn(s spec, p *probe) instance {
	ccfg := idio.DefaultClusterConfig(2, 1)
	ccfg.Host = hostConfig()
	cl, err := idio.NewCluster(ccfg)
	if err != nil {
		panic(err) // the configuration is fixed; an error is a bug
	}
	for c := 0; c < ccfg.Host.NumCores(); c++ {
		cl.DUT.AddNF(c, p.app(apps.L2Fwd{}), cl.DUT.DefaultFlow(c))
	}
	// Scaling the population and think time together keeps the offered
	// request rate (flows / think) the same at every scale.
	flows := s.n(churnFlows, 64)
	think := sim.Duration(float64(churnThink) * float64(flows) / churnFlows)
	cl.AddChurnClient(0, fnet.ChurnConfig{
		Flows:    flows,
		Requests: 1 << 62,
		Think:    think,
		Seed:     s.seed,
	})
	cl.Start()
	// Admit the population: the churn client's start event at t=0
	// inserts every flow and arms its first think timer.
	cl.Sim.RunUntil(0)
	return &churnInst{
		cl:      cl,
		horizon: sim.Time(s.n(int(churnHorizon/churnChunk), 2)) * sim.Time(churnChunk),
		events0: cl.Sim.Processed(),
	}
}

func (in *churnInst) run(p *probe) {
	for t := sim.Time(churnChunk); t <= in.horizon; t += sim.Time(churnChunk) {
		if n := in.cl.Pending(); n > in.peak {
			in.peak = n
		}
		p.slice(func() { in.cl.Sim.RunUntil(t) })
	}
}

func (in *churnInst) collect() outcome {
	res := in.cl.Collect()
	ch := res.Churn
	o := outcome{
		ops:       ch.Responses,
		attempted: ch.Issued,
		failed:    ch.Timeouts + nicDrops(res),
		events:    in.cl.Sim.Processed() - in.events0,
		sim:       values{},
		stats:     statsDump(res),
	}
	span := sim.Duration(res.Now)
	hostLayerValues(o.sim, res, o.ops, span)
	latencyValues(o.sim, res)
	o.sim["sim_goodput_gbps"] = ch.GoodputBps / 1e9
	fabricValues(o.sim, res, span)
	o.sim["net.client_timeout_frac"] = ratio(float64(ch.Timeouts), float64(ch.Issued))
	o.sim["flow.table_load"] = ch.TableLoad
	o.sim["flow.wheel_ticks_per_req"] = ratio(float64(ch.WheelTicks), float64(ch.Responses))
	o.sim["flow.wheel_cascades_per_req"] = ratio(float64(ch.WheelCascades), float64(ch.Responses))
	o.sim["churn.late_frac"] = ratio(float64(ch.Late), float64(ch.Responses))
	if ch.Arrivals != ch.Departures+uint64(ch.ActiveFlows) {
		o.errs = append(o.errs, fmt.Errorf("%d flows arrived but departed+active = %d", ch.Arrivals, ch.Departures+uint64(ch.ActiveFlows)))
	}
	// Requests still on the wire at the horizon are neither answered
	// nor timed out; they are bounded by the population.
	if open := ch.Issued - ch.Responses - ch.Timeouts; ch.Responses+ch.Timeouts > ch.Issued || open > uint64(ch.ActiveFlows) {
		o.errs = append(o.errs, fmt.Errorf("issued %d requests, answered %d, timed out %d, with %d flows", ch.Issued, ch.Responses, ch.Timeouts, ch.ActiveFlows))
	}
	o.finish(in.peak)
	return o
}
