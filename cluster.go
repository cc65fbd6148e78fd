package idio

import (
	"fmt"
	"slices"

	fnet "idio/internal/net"
	"idio/internal/nic"
	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/qos"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// ServerIP is the DUT's address on the fabric (DefaultFlow's Dst).
var ServerIP = pkt.IPv4{10, 0, 0, 1}

// ClientIP returns client host i's fabric address. The 10.0.2/24
// range is disjoint from DefaultFlow's 10.0.1/24 sources, so direct
// injection and fabric traffic can coexist without tuple collisions.
func ClientIP(i int) pkt.IPv4 { return pkt.IPv4{10, 0, 2, byte(i + 1)} }

// Cluster is a multi-host topology: N lightweight client hosts
// reaching one fully-modelled DUT server through an output-queued
// switch. Requests travel client → uplink → switch → server downlink
// → DUT NIC; the DUT's NF processes them and its TX path hands
// completions to the wire hook, which echoes the frame (addresses
// swapped) back through the switch to the owning client.
//
//	client0 ──up──▶          ┌─▶ down ──▶ client0
//	client1 ──up──▶  switch ─┼─▶ down ──▶ client1
//	   ...           ▲    │  └─▶ ...
//	                 │    └─ srv.down ─▶ [DUT NIC → cores → TX]
//	                 └────── srv.up ◀────────────┘
//
// Every host of a cluster, DUT, switch and clients alike, schedules
// its events on one simulator, Sim.
type Cluster struct {
	// Sim is the one event queue every host of the cluster runs on.
	Sim *sim.Simulator
	// DUT is the server host: the full System (hierarchy, NIC, IDIO).
	DUT *System
	// Switch connects every host; routes are keyed by destination IP.
	Switch *fnet.Switch
	// Clients holds the RPC clients installed via AddRPCClient, in
	// installation order (nil-free; index is NOT the client slot).
	Clients []*fnet.Client
	// ChurnClients holds the flow-churn clients installed via
	// AddChurnClient, in installation order.
	ChurnClients []*fnet.ChurnClient
	// ClientUp[i] carries client slot i's traffic toward the switch;
	// ClientDown[i] is non-nil once slot i has an RPC client.
	ClientUp   []*fnet.Link
	ClientDown []*fnet.Link
	// ServerUp carries DUT responses to the switch; ServerDown carries
	// switch traffic into the DUT NIC.
	ServerUp   *fnet.Link
	ServerDown *fnet.Link

	cfg     ClusterConfig
	started bool

	// qosMap is the cluster-wide DSCP→class map when Host.QoS is set
	// (nil otherwise); clientClass records each RPC client's service
	// class (parallel to Clients) for per-class Collect.
	qosMap      *qos.Map
	clientClass []qos.Class

	// at is where the last Run stopped; the next one resumes there.
	at sim.Time
}

// runStep is the until-idle checkpoint period of every run, single
// host or cluster.
const runStep = 100 * sim.Microsecond

// runUntilIdle advances s from checkpoint from to the first runStep
// checkpoint where idle reports true, or else through horizon rounded
// up to a checkpoint, and returns where it stopped. The polling loops
// of a host never terminate, so an until-idle run cannot wait for its
// event queue to drain.
func runUntilIdle(s *sim.Simulator, from sim.Time, horizon sim.Duration, idle func() bool) (sim.Time, error) {
	end := sim.Time(horizon)
	if r := end % sim.Time(runStep); r != 0 {
		end += sim.Time(runStep) - r
	}
	return s.RunCheckpoints(from, end, runStep, idle)
}

// NewCluster wires the topology: the DUT server (full System) and
// nClients client slots. Client slots start empty — attach an RPC
// client with AddRPCClient, or feed a slot's uplink directly via
// ClientIngress (generator traffic through the fabric; install on
// Sim). The DUT NIC's TX path is wired to echo processed
// frames back through the switch.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sm := sim.New()
	dut, err := NewHostE(sm, cfg.Host)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		Sim:    sm,
		DUT:    dut,
		Switch: fnet.NewSwitch("sw0"),
		cfg:    cfg,
	}
	if q := cfg.Host.QoS; q != nil {
		qm, err := q.BuildMap()
		if err != nil {
			return nil, err
		}
		cl.qosMap = qm
		// Arm before any port attaches: every switch egress — the server
		// downlink now, client downlinks as AddRPCClient creates them —
		// replaces its FIFO with the scheduled per-class queues.
		cl.Switch.ArmQoS(q, qm)
	}
	o := dut.Observe()
	cl.Switch.SetObserver(o)
	reg := o.Registry()

	// Server downlink: switch → DUT NIC (it receives like a
	// generator would — *nic.NIC satisfies fnet.Endpoint).
	down := cfg.ServerLink
	down.Name = "srv.down"
	cl.ServerDown = fnet.NewLink(down, dut.NIC)
	cl.ServerDown.SetObserver(o)
	// AddPort arms the link too (idempotently), but only after metrics
	// registration below — arm here so the per-class keys land in the
	// registry alongside the link's own.
	if cl.qosMap != nil {
		cl.ServerDown.ArmQoS(cfg.Host.QoS, cl.qosMap)
	}
	cl.ServerDown.RegisterMetrics(reg, "fabric.srv.down.")
	cl.Switch.Route(ServerIP, cl.Switch.AddPort(cl.ServerDown))

	// Server uplink: DUT TX → switch. The wire hook echoes each
	// transmitted frame with Ethernet/IP/UDP addresses swapped, so the
	// switch routes it back to the requesting client.
	up := cfg.ServerLink
	up.Name = "srv.up"
	cl.ServerUp = fnet.NewLink(up, cl.Switch)
	cl.ServerUp.SetObserver(o)
	cl.ServerUp.RegisterMetrics(reg, "fabric.srv.up.")
	// The echo response is drawn from the host pool — usually the very
	// request packet just released by the slot free in this same event,
	// so the fabric's steady state recycles one packet per in-flight
	// request and allocates nothing.
	dut.NIC.SetWire(func(s *sim.Simulator, p *pkt.Packet) {
		// Capture the request's identity before Get: the pool may hand
		// back p itself (it was released by the slot free moments ago in
		// this same event), and Get resets the recycled packet's Seq.
		seq := p.Seq
		r := dut.PktPool.Get(len(p.Frame))
		pkt.EchoInto(r, p)
		r.Seq = seq
		cl.ServerUp.Receive(s, r)
	})

	// Client uplinks: slot i → switch. Downlinks are created lazily by
	// AddRPCClient (their endpoint is the client itself).
	cl.ClientUp = make([]*fnet.Link, cfg.Clients)
	cl.ClientDown = make([]*fnet.Link, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		lc := cfg.ClientLink
		lc.Name = fmt.Sprintf("c%d.up", i)
		cl.ClientUp[i] = fnet.NewLink(lc, cl.Switch)
		cl.ClientUp[i].SetObserver(o)
		// Clients and generators feeding this uplink draw their request
		// packets from the host pool, so its leak accounting covers the
		// whole fabric.
		cl.ClientUp[i].SetPacketPool(dut.PktPool)
		cl.ClientUp[i].RegisterMetrics(reg, fmt.Sprintf("fabric.c%d.up.", i))
	}
	cl.Switch.RegisterMetrics(reg, "fabric.switch.")

	// Fabric links are fault targets; attach in slot order so the
	// injector's victim choice is deterministic.
	if dut.Faults != nil {
		dut.Faults.AttachLink(cl.ServerDown)
		dut.Faults.AttachLink(cl.ServerUp)
		for _, l := range cl.ClientUp {
			dut.Faults.AttachLink(l)
		}
	}
	return cl, nil
}

// ClientIngress returns slot i's uplink as a traffic.Receiver, so any
// internal/traffic generator can be Installed onto the fabric instead
// of injecting directly into the DUT NIC: generator → uplink → switch
// → server downlink → NIC. Install onto Sim.
func (cl *Cluster) ClientIngress(i int) traffic.Receiver { return cl.ClientUp[i] }

// ClientFlow returns the canonical request flow for client slot i
// targeting the NF on the given DUT core: source is the client's own
// fabric address (responses route back by it), destination the DUT.
func (cl *Cluster) ClientFlow(i, core int) traffic.Flow {
	return traffic.Flow{
		Src: ClientIP(i), Dst: ServerIP,
		SrcPort: uint16(7000 + i), DstPort: uint16(9000 + core),
		FrameLen: pkt.MTUFrameLen,
	}
}

// AddRPCClient installs an RPC client on slot i whose requests are
// served by the NF on the given DUT core: it builds the slot's
// downlink, routes the client's address to it, and pins the flow to
// the core with an EP Flow Director rule. A zero ccfg.Flow defaults
// to ClientFlow(i, core). Every client records latency into its own
// histogram, and Collect merges them into the aggregate.
func (cl *Cluster) AddRPCClient(i, core int, ccfg fnet.ClientConfig) *fnet.Client {
	if ccfg.Flow == (traffic.Flow{}) {
		ccfg.Flow = cl.ClientFlow(i, core)
	}
	c := fnet.NewClient(ccfg, cl.ClientUp[i])
	cl.wireSlot(i, ccfg.Flow.Src, c)
	reg := cl.DUT.Observe().Registry()
	cl.DUT.FlowDir.AddEPRule(ccfg.Flow.Tuple(), core)
	if len(cl.Clients) == 0 {
		cl.registerRPCMetrics(reg)
	}
	if cl.qosMap != nil {
		class := cl.qosMap.Class(ccfg.Flow.DSCP)
		if !slices.Contains(cl.clientClass, class) {
			cl.registerClassMetrics(reg, class)
		}
		cl.clientClass = append(cl.clientClass, class)
	}
	c.RegisterMetrics(reg, fmt.Sprintf("rpc.c%d.", i))
	cl.Clients = append(cl.Clients, c)
	return c
}

// wireSlot builds slot i's downlink to the client endpoint c, arms it
// for QoS, registers its metrics, routes the client's address src to
// it and makes it a fault target. It panics if the slot already has a
// client.
func (cl *Cluster) wireSlot(i int, src pkt.IPv4, c fnet.Endpoint) {
	if cl.ClientDown[i] != nil {
		panic(fmt.Sprintf("idio: client slot %d already has a client", i))
	}
	o := cl.DUT.Observe()
	lc := cl.cfg.ClientLink
	lc.Name = fmt.Sprintf("c%d.down", i)
	down := fnet.NewLink(lc, c)
	cl.ClientDown[i] = down
	down.SetObserver(o)
	if cl.qosMap != nil {
		down.ArmQoS(cl.cfg.Host.QoS, cl.qosMap)
	}
	down.RegisterMetrics(o.Registry(), fmt.Sprintf("fabric.c%d.down.", i))
	cl.Switch.Route(src, cl.Switch.AddPort(down))
	if cl.DUT.Faults != nil {
		cl.DUT.Faults.AttachLink(down)
	}
}

// AddChurnClient installs a flow-churn client on slot i: it builds
// the slot's downlink and routes the client's address to it, exactly
// like AddRPCClient — but installs NO Flow Director rule. A churn
// client's million-key 5-tuple space cannot be pinned with per-flow
// EP rules (the point of the workload); its flows spread across DUT
// cores through the Toeplitz RSS fallback, as unpinned traffic does
// on real hardware. The first churn client also arms the NIC's
// per-flow statistics table (capacity nic.DefaultFlowStatsEntries —
// at a million flows the refusal counter exposes the hardware bound).
// A zero ccfg.Flow defaults to ClientFlow(i, 0).
func (cl *Cluster) AddChurnClient(i int, ccfg fnet.ChurnConfig) *fnet.ChurnClient {
	if ccfg.Flow == (traffic.Flow{}) {
		ccfg.Flow = cl.ClientFlow(i, 0)
	}
	c := fnet.NewChurnClient(cl.Sim, ccfg, cl.ClientUp[i])
	cl.wireSlot(i, ccfg.Flow.Src, c)
	reg := cl.DUT.Observe().Registry()
	if !cl.DUT.FlowDir.FlowStatsEnabled() {
		fd := cl.DUT.FlowDir
		fd.EnableFlowStats(nic.DefaultFlowStatsEntries)
		reg.GaugeFunc("nic.flows_tracked", func() float64 { return float64(fd.TrackedFlows()) })
		reg.GaugeFunc("nic.flow_table_load", fd.FlowStatsLoad)
		reg.CounterFunc("nic.flow_refusals", fd.FlowRefusals)
	}
	if len(cl.ChurnClients) == 0 {
		cl.registerChurnMetrics(reg)
	}
	c.RegisterMetrics(reg, fmt.Sprintf("churn.c%d.", i))
	cl.ChurnClients = append(cl.ChurnClients, c)
	return c
}

// Start launches the DUT (cores, controller, injectors) and every
// installed client. Calling it more than once is a no-op.
func (cl *Cluster) Start() {
	if cl.started {
		return
	}
	cl.started = true
	cl.DUT.Start()
	for _, c := range cl.Clients {
		c.Start(cl.Sim)
	}
	for _, c := range cl.ChurnClients {
		c.Start(cl.Sim)
	}
}

// Idle reports whether the whole topology has drained: DUT rings
// empty, no packet queued/serializing/propagating on any link, and
// every client out of budget with no request awaiting a response or
// timeout.
func (cl *Cluster) Idle() bool {
	if !cl.DUT.idle() {
		return false
	}
	for _, l := range cl.links() {
		if l.InFlight() != 0 {
			return false
		}
	}
	for _, c := range cl.Clients {
		if !c.Done() {
			return false
		}
	}
	for _, c := range cl.ChurnClients {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Pending returns the number of events queued on the cluster's
// simulator.
func (cl *Cluster) Pending() int { return cl.Sim.Pending() }

// links returns every fabric link in slot order (nil downlinks of
// empty client slots are skipped).
func (cl *Cluster) links() []*fnet.Link {
	ls := []*fnet.Link{cl.ServerDown, cl.ServerUp}
	for _, l := range cl.ClientUp {
		ls = append(ls, l)
	}
	for _, l := range cl.ClientDown {
		if l != nil {
			ls = append(ls, l)
		}
	}
	return ls
}

// RunOpts selects how Cluster.Run executes.
type RunOpts struct {
	// Horizon bounds the run in simulated time.
	Horizon sim.Duration
	// UntilIdle stops early at the first 100 µs checkpoint where the
	// topology has drained (all clients done, fabric and rings empty)
	// — the natural mode for fixed request budgets.
	UntilIdle bool
}

// Run starts the cluster (if needed) and executes to opts.Horizon,
// resuming from where the last Run stopped. It returns the collected
// results and the watchdog's abort, nil on a clean run.
func (cl *Cluster) Run(opts RunOpts) (Results, error) {
	cl.Start()
	var err error
	if opts.UntilIdle {
		cl.at, err = runUntilIdle(cl.Sim, cl.at, opts.Horizon, cl.Idle)
	} else {
		cl.at, err = cl.Sim.RunCheckpoints(cl.at, sim.Time(opts.Horizon), 0, nil)
	}
	return cl.Collect(), err
}

// Collect snapshots the DUT's results and attaches the fabric and RPC
// summaries. Run calls it; it remains exported for callers that need
// to re-snapshot after a run.
func (cl *Cluster) Collect() Results {
	r := cl.DUT.Collect()
	f := &FabricResults{Switch: cl.Switch.Stats()}
	for _, l := range cl.links() {
		lr := LinkResult{Name: l.Name(), Stats: l.Stats()}
		if l.QoSArmed() {
			cs := l.ClassStats()
			for c := range cs {
				lr.Classes = append(lr.Classes, LinkClassResult{
					Class: qos.Class(c).String(), Stats: cs[c],
				})
			}
		}
		f.Links = append(f.Links, lr)
	}
	r.Fabric = f
	if len(cl.Clients) > 0 {
		rpc, _ := cl.rpcSummary(nil)
		if cl.qosMap != nil {
			rpc.Classes = cl.collectClasses()
		}
		r.RPC = &rpc
	}
	if len(cl.ChurnClients) > 0 {
		ch := cl.churnSummary()
		r.Churn = &ch
	}
	return r
}

// collectClasses builds the per-service-class RPC summary, one row per
// class that has clients, in class order.
func (cl *Cluster) collectClasses() []RPCClassResult {
	var out []RPCClassResult
	for class := qos.Class(0); class < qos.NumClasses; class++ {
		if cr := cl.classSummary(class); cr.Clients > 0 {
			out = append(out, cr)
		}
	}
	return out
}

// respClient is what the aggregate summaries read from an RPC or churn
// client beyond its counters: received bytes, the send/response span
// and the latency histogram.
type respClient interface {
	RxBytes() uint64
	FirstSend() sim.Time
	LastResp() sim.Time
	Hist() *stats.Histogram
}

// respSummary accumulates the response side of a set of clients.
// Goodput spans the earliest first send to the latest response, and
// the percentiles read the merge of the per-client histograms.
type respSummary struct {
	n           int
	rxBytes     uint64
	first, last sim.Time
	h           *stats.Histogram
}

func newRespSummary() respSummary { return respSummary{h: stats.NewHistogram(5)} }

func (a *respSummary) add(c respClient) {
	a.n++
	a.rxBytes += c.RxBytes()
	if fs := c.FirstSend(); a.n == 1 || fs < a.first {
		a.first = fs
	}
	if lr := c.LastResp(); lr > a.last {
		a.last = lr
	}
	a.h.Merge(c.Hist())
}

// result returns the aggregate goodput and latency percentiles (all
// zero for an empty set).
func (a *respSummary) result() (goodputBps float64, p50, p99, p999 sim.Duration) {
	return fnet.GoodputBps(a.rxBytes, a.first, a.last),
		a.h.Quantile(0.50), a.h.Quantile(0.99), a.h.Quantile(0.999)
}

// rpcSummary aggregates the RPC clients keep selects by index into
// Clients (every client when keep is nil) and returns how many it
// selected. Collect, collectClasses and the rpc.* registry metrics
// all read it.
func (cl *Cluster) rpcSummary(keep func(j int) bool) (RPCResults, int) {
	var r RPCResults
	a := newRespSummary()
	for j, c := range cl.Clients {
		if keep != nil && !keep(j) {
			continue
		}
		st := c.Stats()
		r.Issued += st.Issued
		r.Responses += st.Responses
		r.Timeouts += st.Timeouts
		r.Late += st.Late
		r.Retries += st.Retries
		r.Failed += st.Failed
		a.add(c)
	}
	r.GoodputBps, r.P50, r.P99, r.P999 = a.result()
	return r, a.n
}

// classSummary aggregates the RPC clients of one service class
// (Clients is 0 when the class has none).
func (cl *Cluster) classSummary(class qos.Class) RPCClassResult {
	r, n := cl.rpcSummary(func(j int) bool { return cl.clientClass[j] == class })
	return RPCClassResult{
		Class: class.String(), Clients: n,
		Issued: r.Issued, Responses: r.Responses, Timeouts: r.Timeouts,
		GoodputBps: r.GoodputBps, P50: r.P50, P99: r.P99, P999: r.P999,
	}
}

// churnSummary aggregates every churn client. The NIC flow-table
// snapshot is the DUT's; TableLoad is the worst client's occupancy.
func (cl *Cluster) churnSummary() ChurnResults {
	ch := ChurnResults{
		NICFlowsTracked: cl.DUT.FlowDir.TrackedFlows(),
		NICFlowRefusals: cl.DUT.FlowDir.FlowRefusals(),
	}
	a := newRespSummary()
	for _, c := range cl.ChurnClients {
		st := c.Stats()
		ch.Issued += st.Issued
		ch.Responses += st.Responses
		ch.Timeouts += st.Timeouts
		ch.Late += st.Late
		ch.Arrivals += st.Arrivals
		ch.Departures += st.Departures
		ch.ActiveFlows += st.ActiveFlows
		ch.WheelTicks += st.Wheel.Ticks
		ch.WheelCascades += st.Wheel.Cascades
		if st.TableLoad > ch.TableLoad {
			ch.TableLoad = st.TableLoad
		}
		a.add(c)
	}
	ch.GoodputBps, ch.P50, ch.P99, ch.P999 = a.result()
	return ch
}

// registerRPCMetrics registers the aggregate rpc.* metrics (called when
// the first RPC client is added).
func (cl *Cluster) registerRPCMetrics(reg *obs.Registry) {
	sum := func() RPCResults { r, _ := cl.rpcSummary(nil); return r }
	reg.CounterFunc("rpc.issued", func() uint64 { return sum().Issued })
	reg.CounterFunc("rpc.responses", func() uint64 { return sum().Responses })
	reg.CounterFunc("rpc.timeouts", func() uint64 { return sum().Timeouts })
	reg.CounterFunc("rpc.late", func() uint64 { return sum().Late })
	reg.CounterFunc("rpc.retries", func() uint64 { return sum().Retries })
	reg.CounterFunc("rpc.failed", func() uint64 { return sum().Failed })
	reg.GaugeFunc("rpc.goodput_gbps", func() float64 { return sum().GoodputBps / 1e9 })
	reg.GaugeFunc("rpc.p50_us", func() float64 { return sum().P50.Microseconds() })
	reg.GaugeFunc("rpc.p99_us", func() float64 { return sum().P99.Microseconds() })
	reg.GaugeFunc("rpc.p999_us", func() float64 { return sum().P999.Microseconds() })
}

// registerClassMetrics registers one service class's rpc.<class>.*
// metrics (called when the class's first RPC client is added).
func (cl *Cluster) registerClassMetrics(reg *obs.Registry, class qos.Class) {
	p := "rpc." + class.String() + "."
	sum := func() RPCClassResult { return cl.classSummary(class) }
	reg.CounterFunc(p+"clients", func() uint64 { return uint64(sum().Clients) })
	reg.CounterFunc(p+"issued", func() uint64 { return sum().Issued })
	reg.CounterFunc(p+"responses", func() uint64 { return sum().Responses })
	reg.CounterFunc(p+"timeouts", func() uint64 { return sum().Timeouts })
	reg.GaugeFunc(p+"goodput_gbps", func() float64 { return sum().GoodputBps / 1e9 })
	reg.GaugeFunc(p+"p50_us", func() float64 { return sum().P50.Microseconds() })
	reg.GaugeFunc(p+"p99_us", func() float64 { return sum().P99.Microseconds() })
	reg.GaugeFunc(p+"p999_us", func() float64 { return sum().P999.Microseconds() })
}

// registerChurnMetrics registers the aggregate churn.* metrics (called
// when the first churn client is added).
func (cl *Cluster) registerChurnMetrics(reg *obs.Registry) {
	sum := cl.churnSummary
	reg.CounterFunc("churn.issued", func() uint64 { return sum().Issued })
	reg.CounterFunc("churn.responses", func() uint64 { return sum().Responses })
	reg.CounterFunc("churn.timeouts", func() uint64 { return sum().Timeouts })
	reg.CounterFunc("churn.late", func() uint64 { return sum().Late })
	reg.CounterFunc("churn.arrivals", func() uint64 { return sum().Arrivals })
	reg.CounterFunc("churn.departures", func() uint64 { return sum().Departures })
	reg.GaugeFunc("churn.active_flows", func() float64 { return float64(sum().ActiveFlows) })
	reg.GaugeFunc("churn.table_load", func() float64 { return sum().TableLoad })
	reg.CounterFunc("churn.wheel_ticks", func() uint64 { return sum().WheelTicks })
	reg.CounterFunc("churn.wheel_cascades", func() uint64 { return sum().WheelCascades })
	reg.GaugeFunc("churn.goodput_gbps", func() float64 { return sum().GoodputBps / 1e9 })
	reg.GaugeFunc("churn.p50_us", func() float64 { return sum().P50.Microseconds() })
	reg.GaugeFunc("churn.p99_us", func() float64 { return sum().P99.Microseconds() })
	reg.GaugeFunc("churn.p999_us", func() float64 { return sum().P999.Microseconds() })
}
