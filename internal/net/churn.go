package net

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"idio/internal/flow"
	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// ChurnConfig describes a flow-churn client: a population of Flows
// concurrent flows, each issuing a Zipf-drawn budget of requests with
// exponential think times between them, departing when the budget is
// spent and being replaced by a fresh flow (new 5-tuple, new size
// draw) after an exponential arrival gap — the Poisson
// arrival/departure process of a real server's connection table. The
// point of the model is scale: per-flow state lives in a compact
// flow.Table and every think/timeout deadline rides one hashed timer
// wheel, so a million concurrent flows cost one scheduled event per
// wheel tick and zero steady-state allocations per request.
type ChurnConfig struct {
	// Flow is the base template: Src must be the client's address (the
	// switch routes responses back by it), Dst the server's. SrcPort
	// and DstPort are the bases of the per-flow port spaces: flow i
	// sends from SrcPort+i%SrcPorts to DstPort+(i/SrcPorts)%DstPorts,
	// so the NIC's RSS hash — not an explicit filter rule per flow —
	// spreads the million-key tuple space across cores.
	Flow traffic.Flow
	// Flows is the target concurrent flow population.
	Flows int
	// Requests bounds the run: total wire transmissions (first sends
	// and timeout resends) across all flows.
	Requests uint64
	// Start delays the first arrivals; the initial population arrives
	// at Start with think-staggered first requests (no thundering
	// herd).
	Start sim.Time
	// Timeout bounds the wait per request; 0 means DefaultTimeout. A
	// timed-out request is resent (budget permitting) under a fresh
	// attempt number, so the late response is never mistaken for the
	// resend's.
	Timeout sim.Duration
	// Think is the mean think time between a flow's requests
	// (exponential). 0 means 1ms. The experiment scales Think with the
	// population to hold offered load constant across the sweep.
	Think sim.Duration
	// ArrivalGap is the mean delay between a departure and its
	// replacement arrival (exponential); 0 means Think.
	ArrivalGap sim.Duration
	// SizeZipfS is the Zipf skew of per-flow request budgets (must be
	// > 1; 0 means 1.2): most flows draw small budgets, a heavy tail
	// draws large ones.
	SizeZipfS float64
	// MiceFrac is the fraction of arrivals classed as mice (0 means
	// 0.9); mice draw budgets in [1, MiceMax] (0 means 8), elephants
	// in (MiceMax, SizeMax] (0 means 128).
	MiceFrac float64
	MiceMax  uint64
	SizeMax  uint64
	// DSCPs assigns per-flow service classes round-robin by flow id;
	// empty means every flow uses Flow.DSCP. One immutable frame
	// template is built per distinct class (DSCP lives inside the IPv4
	// checksum; UDP ports do not, so ports are rewritten per flow with
	// no checksum work).
	DSCPs []uint8
	// SrcPorts and DstPorts size the per-flow port spaces (0 means
	// 16384 source ports and 1 destination port).
	SrcPorts int
	DstPorts int
	// Seed drives the size/think/arrival PRNG; equal seeds replay
	// bit-identically.
	Seed int64
	// WheelGran and WheelSlots shape the client's timer wheel (0 means
	// 64us granularity and a derived slot count: the next power of two
	// at or above 4*max(Think, ArrivalGap, Timeout)/WheelGran, clamped
	// to [4096, 1<<20], so deadlines rarely outlive one rotation). All
	// think, timeout, and arrival deadlines quantize to the
	// granularity; the slot count changes only how often long
	// deadlines are re-inspected, never when or in which order timers
	// fire. WheelSlots above 1<<20 is rejected.
	WheelGran  sim.Duration
	WheelSlots int
}

// maxChurnWheelSlots bounds a churn client's wheel: 1<<20 slots are
// 8 MiB of list heads.
const maxChurnWheelSlots = 1 << 20

// Validate checks the churn parameters.
func (c *ChurnConfig) Validate() error {
	var errs []error
	if c.Flows <= 0 {
		errs = append(errs, fmt.Errorf("net: churn Flows %d must be > 0", c.Flows))
	}
	if c.Requests == 0 {
		errs = append(errs, errors.New("net: churn needs a request budget"))
	}
	if c.SizeZipfS != 0 && c.SizeZipfS <= 1 {
		errs = append(errs, fmt.Errorf("net: churn SizeZipfS %v must be > 1", c.SizeZipfS))
	}
	if c.MiceFrac < 0 || c.MiceFrac > 1 {
		errs = append(errs, fmt.Errorf("net: churn MiceFrac %v outside [0,1]", c.MiceFrac))
	}
	mice, size := c.MiceMax, c.SizeMax
	if mice == 0 {
		mice = 8
	}
	if size == 0 {
		size = 128
	}
	if size <= mice {
		errs = append(errs, fmt.Errorf("net: churn SizeMax %d must exceed MiceMax %d", size, mice))
	}
	if size > math.MaxUint32 {
		// A flow's remaining budget is a uint32.
		errs = append(errs, fmt.Errorf("net: churn SizeMax %d exceeds %d", size, uint64(math.MaxUint32)))
	}
	if c.WheelSlots > maxChurnWheelSlots {
		errs = append(errs, fmt.Errorf("net: churn WheelSlots %d exceeds %d", c.WheelSlots, maxChurnWheelSlots))
	}
	sp, dp := c.SrcPorts, c.DstPorts
	if sp == 0 {
		sp = 16384
	}
	if dp == 0 {
		dp = 1
	}
	if sp < 0 || int(c.Flow.SrcPort)+sp > 1<<16 {
		errs = append(errs, fmt.Errorf("net: churn source ports [%d,%d) overflow", c.Flow.SrcPort, int(c.Flow.SrcPort)+sp))
	}
	if dp < 0 || int(c.Flow.DstPort)+dp > 1<<16 {
		errs = append(errs, fmt.Errorf("net: churn destination ports [%d,%d) overflow", c.Flow.DstPort, int(c.Flow.DstPort)+dp))
	}
	for _, d := range c.DSCPs {
		if d > 63 {
			errs = append(errs, fmt.Errorf("net: churn DSCP %d exceeds 6 bits", d))
		}
	}
	return errors.Join(errs...)
}

// ChurnStats summarises one churn client's run.
type ChurnStats struct {
	Issued    uint64 // wire transmissions (first sends + resends)
	Responses uint64
	Timeouts  uint64
	Late      uint64
	// Arrivals and Departures count flow lifecycle events; ActiveFlows
	// is the resident population at collection time.
	Arrivals    uint64
	Departures  uint64
	ActiveFlows int
	GoodputBps  float64
	P50         sim.Duration
	P99         sim.Duration
	P999        sim.Duration
	// Wheel is the timer wheel's activity (armed/fired/canceled
	// deadlines, ticks, cascade inspections).
	Wheel sim.TimerWheelStats
	// TableLoad is the flow table's occupancy fraction.
	TableLoad float64
}

// churnFlow is one resident flow's state: 24 bytes of inline value in
// the flow table (a 40-byte slot), no pointers. The flow's ports and
// class are pure functions of its id (see send), so they are not
// stored.
type churnFlow struct {
	sent      sim.Time        // last request's send time
	timer     sim.TimerHandle // armed think or timeout deadline
	remaining uint32          // requests left in this flow's budget
	attempt   uint16          // wire attempt counter (resends bump it)
	waiting   bool            // a request is on the wire
}

// ChurnClient drives the flow-churn workload into an uplink. All
// per-flow state is a flow.Table keyed by flow id; the wire sequence
// number of a request is flowID<<16 | attempt, so responses match the
// exact transmission that elicited them even across timeout resends.
type ChurnClient struct {
	cfg   ChurnConfig
	up    *Link
	wheel *sim.TimerWheel
	hist  *stats.Histogram

	// thinkK, timeoutK and arriveK are the wheel kinds of the three
	// deadlines (churnThinkEv, churnTimeoutEv, churnArriveEv).
	thinkK, timeoutK, arriveK sim.TimerKind

	// tmpls holds one prebuilt frame per DSCP class; pool recycles
	// request packets.
	tmpls []*pkt.Template
	pool  *pkt.Pool

	flows    *flow.Table[churnFlow]
	nextFlow uint64
	rng      *rand.Rand
	miceZipf *rand.Zipf // budgets 1..MiceMax
	elepZipf *rand.Zipf // budgets MiceMax+1..SizeMax

	issued     uint64
	resp       uint64
	timeouts   uint64
	late       uint64
	arrivals   uint64
	departures uint64
	rxBytes    uint64

	firstSend sim.Time
	lastResp  sim.Time
	sentAny   bool
	started   bool
}

// NewChurnClient builds a churn client sending into up on s. The
// timer wheel is created on s, so Start must be given the same
// simulator.
func NewChurnClient(s *sim.Simulator, cfg ChurnConfig, up *Link) *ChurnClient {
	if up == nil {
		panic("net: churn client needs an uplink")
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("net: churn: %v", err))
	}
	if cfg.Flow.FrameLen == 0 {
		cfg.Flow.FrameLen = pkt.MTUFrameLen
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Think <= 0 {
		cfg.Think = sim.Millisecond
	}
	if cfg.ArrivalGap <= 0 {
		cfg.ArrivalGap = cfg.Think
	}
	if cfg.SizeZipfS == 0 {
		cfg.SizeZipfS = 1.2
	}
	if cfg.MiceFrac == 0 {
		cfg.MiceFrac = 0.9
	}
	if cfg.MiceMax == 0 {
		cfg.MiceMax = 8
	}
	if cfg.SizeMax == 0 {
		cfg.SizeMax = 128
	}
	if cfg.SrcPorts == 0 {
		cfg.SrcPorts = 16384
	}
	if cfg.DstPorts == 0 {
		cfg.DstPorts = 1
	}
	if cfg.WheelGran <= 0 {
		cfg.WheelGran = 64 * sim.Microsecond
	}
	if cfg.WheelSlots <= 0 {
		cfg.WheelSlots = churnWheelSlots(cfg.WheelGran, max(cfg.Think, cfg.ArrivalGap, cfg.Timeout))
	}
	if len(cfg.DSCPs) == 0 {
		cfg.DSCPs = []uint8{cfg.Flow.DSCP}
	}
	c := &ChurnClient{
		cfg:   cfg,
		up:    up,
		wheel: sim.NewTimerWheel(s, cfg.WheelGran, cfg.WheelSlots),
		hist:  stats.NewHistogram(5),
		flows: flow.New[churnFlow](cfg.Flows),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	c.thinkK = c.wheel.Bind(churnThinkEv, c)
	c.timeoutK = c.wheel.Bind(churnTimeoutEv, c)
	c.arriveK = c.wheel.Bind(churnArriveEv, c)
	c.miceZipf = rand.NewZipf(c.rng, cfg.SizeZipfS, 1, cfg.MiceMax-1)
	c.elepZipf = rand.NewZipf(c.rng, cfg.SizeZipfS, 1, cfg.SizeMax-cfg.MiceMax-1)
	for _, d := range cfg.DSCPs {
		fl := cfg.Flow
		fl.DSCP = d
		tmpl, err := fl.Template()
		if err != nil {
			panic(fmt.Sprintf("net: churn flow: %v", err))
		}
		c.tmpls = append(c.tmpls, tmpl)
	}
	return c
}

// churnWheelSlots derives a wheel's slot count from its longest mean
// deadline: the next power of two covering four of them, within
// [4096, maxChurnWheelSlots]. Exponential think and arrival draws
// rarely exceed four means, so almost no timer outlives one rotation.
func churnWheelSlots(gran, longest sim.Duration) int {
	want := 4 * float64(longest) / float64(gran)
	n := 4096
	for float64(n) < want && n < maxChurnWheelSlots {
		n <<= 1
	}
	return n
}

// Flow returns the client's base flow template.
func (c *ChurnClient) Flow() traffic.Flow { return c.cfg.Flow }

// Wheel exposes the client's timer wheel (stats, tests).
func (c *ChurnClient) Wheel() *sim.TimerWheel { return c.wheel }

// Table exposes the client's flow table (stats, tests).
func (c *ChurnClient) Table() *flow.Table[churnFlow] { return c.flows }

// Start schedules the initial population's arrival. Call once. The
// whole population arrives at cfg.Start, but each flow's first
// request is deferred by a think draw, so load ramps over roughly one
// think window instead of bursting.
func (c *ChurnClient) Start(s *sim.Simulator) {
	if c.started {
		panic("net: churn client already started")
	}
	c.started = true
	if c.pool = c.up.PacketPool(); c.pool == nil {
		c.pool = pkt.NewPool(c.cfg.Flow.FrameLen)
	}
	s.AtNamed(c.cfg.Start, "churn-start", func(sm *sim.Simulator) {
		for i := 0; i < c.cfg.Flows; i++ {
			fid := c.admit()
			f := c.flows.Ref(fid)
			f.timer = c.wheel.Arm(c.expDraw(c.cfg.Think), c.thinkK, fid)
		}
	})
}

// admit creates one flow — id and budget draw; its 5-tuple and class
// follow from the id — and inserts it idle (no timer armed yet).
// Returns the flow id.
func (c *ChurnClient) admit() uint64 {
	fid := c.nextFlow
	c.nextFlow++
	var budget uint64
	if c.rng.Float64() < c.cfg.MiceFrac {
		budget = 1 + c.miceZipf.Uint64()
	} else {
		budget = c.cfg.MiceMax + 1 + c.elepZipf.Uint64()
	}
	c.arrivals++
	c.flows.Put(fid, churnFlow{remaining: uint32(budget)})
	return fid
}

// expDraw returns an exponential deviate with the given mean, floored
// at one picosecond.
func (c *ChurnClient) expDraw(mean sim.Duration) sim.Duration {
	d := sim.Duration(c.rng.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// send puts flow fid's next request on the wire: a pool packet
// stamped from the flow's class template with the per-flow UDP ports
// rewritten in place (ports sit outside the IPv4 checksum, and the
// UDP checksum is unused, so the rewrite costs two stores). Flow fid
// sends from SrcPort+fid%SrcPorts to DstPort+(fid/SrcPorts)%DstPorts
// with class fid%len(DSCPs). Arms the timeout on the wheel. Zero
// allocations once pool, slab, and table are warm.
func (c *ChurnClient) send(s *sim.Simulator, fid uint64, f *churnFlow) {
	w := fid<<16 | uint64(f.attempt)
	c.issued++
	srcPort := c.cfg.Flow.SrcPort + uint16(fid%uint64(c.cfg.SrcPorts))
	dstPort := c.cfg.Flow.DstPort + uint16(fid/uint64(c.cfg.SrcPorts)%uint64(c.cfg.DstPorts))
	tmpl := c.tmpls[fid%uint64(len(c.tmpls))]
	p := c.pool.Get(tmpl.FrameLen())
	tmpl.Stamp(p, w)
	udp := p.Frame[pkt.EthHeaderLen+pkt.IPv4HeaderLen:]
	udp[0], udp[1] = byte(srcPort>>8), byte(srcPort)
	udp[2], udp[3] = byte(dstPort>>8), byte(dstPort)
	now := s.Now()
	if !c.sentAny {
		c.sentAny = true
		c.firstSend = now
	}
	f.sent = now
	f.waiting = true
	f.timer = c.wheel.Arm(c.cfg.Timeout, c.timeoutK, w)
	c.up.Receive(s, p)
}

// depart removes flow fid and, budget permitting, arms a replacement
// arrival after an exponential gap — the Poisson churn process.
func (c *ChurnClient) depart(fid uint64) {
	c.flows.Delete(fid)
	c.departures++
	if c.issued < c.cfg.Requests {
		c.wheel.Arm(c.expDraw(c.cfg.ArrivalGap), c.arriveK, 0)
	}
}

// churnThinkEv fires when an idle flow's think time expires: it sends
// the flow's next request, or departs the flow when the global budget
// is spent. Arg.Obj is the *ChurnClient, U0 the flow id.
func churnThinkEv(sm *sim.Simulator, a sim.Arg) {
	c := a.Obj.(*ChurnClient)
	fid := a.U0
	f := c.flows.Ref(fid)
	if f == nil {
		return
	}
	if c.issued >= c.cfg.Requests {
		c.depart(fid)
		return
	}
	c.send(sm, fid, f)
}

// churnTimeoutEv fires at a request's response deadline. A stale fire
// (flow departed, or the attempt was already answered) is a no-op —
// the wheel cancels matched deadlines, so this only happens across a
// resend race. Otherwise the request is resent under the next attempt
// number (budget permitting) or the flow departs unanswered. Arg.Obj
// is the *ChurnClient, U0 the wire sequence number.
func churnTimeoutEv(sm *sim.Simulator, a sim.Arg) {
	c := a.Obj.(*ChurnClient)
	fid, att := a.U0>>16, uint16(a.U0)
	f := c.flows.Ref(fid)
	if f == nil || !f.waiting || f.attempt != att {
		return
	}
	c.timeouts++
	if c.issued >= c.cfg.Requests {
		c.depart(fid)
		return
	}
	f.attempt++
	c.send(sm, fid, f)
}

// churnArriveEv fires when a replacement flow's arrival gap expires:
// a fresh flow is admitted and immediately issues its first request.
// Arg.Obj is the *ChurnClient.
func churnArriveEv(sm *sim.Simulator, a sim.Arg) {
	c := a.Obj.(*ChurnClient)
	if c.issued >= c.cfg.Requests {
		return
	}
	fid := c.admit()
	c.send(sm, fid, c.flows.Ref(fid))
}

// Receive consumes one response from the fabric (implements
// Endpoint). The wire sequence number decomposes into flow id and
// attempt; only the exact outstanding attempt matches — responses to
// departed flows or superseded attempts count as Late.
func (c *ChurnClient) Receive(s *sim.Simulator, p *pkt.Packet) {
	fid, att := p.Seq>>16, uint16(p.Seq)
	f := c.flows.Ref(fid)
	if f == nil || !f.waiting || f.attempt != att {
		c.late++
		p.Release()
		return
	}
	c.wheel.Cancel(f.timer)
	now := s.Now()
	c.hist.Record(now.Sub(f.sent))
	c.resp++
	c.rxBytes += uint64(p.Len())
	c.lastResp = now
	f.waiting = false
	f.attempt++
	f.remaining--
	p.Release()
	if f.remaining == 0 || c.issued >= c.cfg.Requests {
		c.depart(fid)
		return
	}
	f.timer = c.wheel.Arm(c.expDraw(c.cfg.Think), c.thinkK, fid)
}

// Done reports whether the budget is spent and every flow has
// drained — the fabric idle check. (Residual arrival timers fire as
// no-ops and the wheel then suspends.)
func (c *ChurnClient) Done() bool {
	return c.issued >= c.cfg.Requests && c.flows.Len() == 0
}

// Issued returns wire transmissions so far.
func (c *ChurnClient) Issued() uint64 { return c.issued }

// Responses returns responses matched so far.
func (c *ChurnClient) Responses() uint64 { return c.resp }

// RxBytes returns response bytes received (matched responses only).
func (c *ChurnClient) RxBytes() uint64 { return c.rxBytes }

// FirstSend and LastResp bracket the client's active span.
func (c *ChurnClient) FirstSend() sim.Time { return c.firstSend }

// LastResp returns when the last matched response arrived.
func (c *ChurnClient) LastResp() sim.Time { return c.lastResp }

// Hist exposes the client's private latency histogram.
func (c *ChurnClient) Hist() *stats.Histogram { return c.hist }

// Stats summarises the run so far.
func (c *ChurnClient) Stats() ChurnStats {
	return ChurnStats{
		Issued:      c.issued,
		Responses:   c.resp,
		Timeouts:    c.timeouts,
		Late:        c.late,
		Arrivals:    c.arrivals,
		Departures:  c.departures,
		ActiveFlows: c.flows.Len(),
		Wheel:       c.wheel.Stats(),
		TableLoad:   c.flows.LoadFactor(),
		GoodputBps:  goodputBps(c.rxBytes, c.firstSend, c.lastResp),
		P50:         c.hist.Quantile(0.50),
		P99:         c.hist.Quantile(0.99),
		P999:        c.hist.Quantile(0.999),
	}
}

// RegisterMetrics registers the churn client's counters and gauges
// under prefix (e.g. "churn.c0.") into the observability registry.
func (c *ChurnClient) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"issued", func() uint64 { return c.issued })
	reg.CounterFunc(prefix+"responses", func() uint64 { return c.resp })
	reg.CounterFunc(prefix+"timeouts", func() uint64 { return c.timeouts })
	reg.CounterFunc(prefix+"late", func() uint64 { return c.late })
	reg.CounterFunc(prefix+"arrivals", func() uint64 { return c.arrivals })
	reg.CounterFunc(prefix+"departures", func() uint64 { return c.departures })
	reg.GaugeFunc(prefix+"active_flows", func() float64 { return float64(c.flows.Len()) })
	reg.GaugeFunc(prefix+"table_load", func() float64 { return c.flows.LoadFactor() })
	reg.CounterFunc(prefix+"wheel_ticks", func() uint64 { return c.wheel.Stats().Ticks })
	reg.CounterFunc(prefix+"wheel_cascades", func() uint64 { return c.wheel.Stats().Cascades })
	reg.GaugeFunc(prefix+"wheel_pending", func() float64 { return float64(c.wheel.Len()) })
	reg.GaugeFunc(prefix+"goodput_gbps", func() float64 {
		return goodputBps(c.rxBytes, c.firstSend, c.lastResp) / 1e9
	})
	reg.GaugeFunc(prefix+"p99_us", func() float64 { return c.hist.Quantile(0.99).Microseconds() })
}
