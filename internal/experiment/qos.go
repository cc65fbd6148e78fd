package experiment

import (
	"fmt"

	idiocore "idio/internal/core"
	fnet "idio/internal/net"
	"idio/internal/qos"
	"idio/internal/scenario"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// QoSRow is one service class's outcome under one data-plane setup: a
// latency-critical EF population holding its SLO (or not) while bulk
// AF traffic and a CS1 scavenger antagonist saturate the server link.
type QoSRow struct {
	// Setup names the data plane: "ddio", "idio", or "idio+qos" (IDIO
	// placement plus the class-aware fabric/placement policy).
	Setup string
	// Class is the service class this row aggregates ("ef", "af41",
	// "af21", "cs1").
	Class   string
	Clients int

	Issued    uint64
	Responses uint64
	Timeouts  uint64
	// Drops is the class's own tail-drop count on the contended server
	// downlink when the scheduled egress is armed; for unscheduled
	// setups the per-class split does not exist and the column carries
	// the link's aggregate drops on every row.
	Drops       uint64
	GoodputGbps float64
	P50US       float64
	P99US       float64
	P999US      float64
	Aborted     bool
}

// QoSOpts parameterises the contention scenario.
type QoSOpts struct {
	// Cores is the DUT core count; EF clients pin to core 0, everyone
	// else round-robins over the remaining cores.
	Cores int
	// EFClients run closed-loop (window EFWindow, budget EFRequests
	// each) at DSCP 46 — the latency-critical population whose p99 the
	// experiment tracks.
	EFClients  int
	EFWindow   int
	EFRequests uint64
	// AF41/AF21 clients offer open-loop bulk load (per-client Gbps) at
	// DSCPs 34/18; the CS1 clients are the scavenger antagonist at
	// DSCP 8. Budgets are horizon-bounded, not request-bounded.
	AF41Clients int
	AF41Gbps    float64
	AF21Clients int
	AF21Gbps    float64
	CS1Clients  int
	CS1Gbps     float64
	// Link is the per-hop template; its rate is the contended resource
	// (offered bulk + scavenger load should exceed it).
	Link     fnet.LinkConfig
	FrameLen int
	Timeout  sim.Duration
	Horizon  sim.Duration
	Geometry
	// Parallelism bounds the worker pool over independent cells.
	Parallelism int
}

// DefaultQoSOpts saturates a 10 GbE server link at ~120% (4 Gbps AF41
// + 2 Gbps AF21 + 6 Gbps CS1) under two closed-loop EF clients.
func DefaultQoSOpts() QoSOpts {
	return QoSOpts{
		Cores:       2,
		EFClients:   2,
		EFWindow:    4,
		EFRequests:  96,
		AF41Clients: 2,
		AF41Gbps:    2,
		AF21Clients: 1,
		AF21Gbps:    2,
		CS1Clients:  1,
		CS1Gbps:     6,
		Link:        fnet.LinkConfig{RateBps: 10e9, Delay: 2 * sim.Microsecond},
		FrameLen:    1514,
		Horizon:     10 * sim.Millisecond,
		Geometry:    Geometry{RingSize: 1024},
	}
}

// qosSetup is one column of the comparison: a placement policy plus
// whether the class-aware pipeline is armed.
type qosSetup struct {
	name  string
	pol   idiocore.Policy
	armed bool
}

func qosSetups() []qosSetup {
	return []qosSetup{
		{name: "ddio", pol: idiocore.PolicyDDIO},
		{name: "idio", pol: idiocore.PolicyIDIO},
		{name: "idio+qos", pol: idiocore.PolicyIDIO, armed: true},
	}
}

// qosClientPlan describes the client population in installation order,
// so result grouping never depends on the cluster's own (setup-
// dependent) class tracking.
type qosClientPlan struct {
	class qos.Class
	dscp  uint8
	gbps  float64 // open-loop load; 0 for the closed-loop EF clients
}

func (o QoSOpts) plan() []qosClientPlan {
	var plan []qosClientPlan
	add := func(n int, class qos.Class, dscp uint8, gbps float64) {
		for i := 0; i < n; i++ {
			plan = append(plan, qosClientPlan{class: class, dscp: dscp, gbps: gbps})
		}
	}
	add(o.EFClients, qos.ClassEF, 46, 0)
	add(o.AF41Clients, qos.ClassAF41, 34, o.AF41Gbps)
	add(o.AF21Clients, qos.ClassAF21, 18, o.AF21Gbps)
	add(o.CS1Clients, qos.ClassCS1, 8, o.CS1Gbps)
	return plan
}

// runQoSCell builds one cluster, applies the setup, runs to drain or
// horizon, and summarises per class.
func runQoSCell(opts QoSOpts, setup qosSetup) []QoSRow {
	plan := opts.plan()
	d := echoCluster(setup.pol, opts.Cores, opts.Geometry, len(plan), opts.Link)
	armWatchdog(&d.Host)
	if setup.armed {
		d.Host.QoS = qos.DefaultConfig()
	}
	// Open-loop budgets: enough to keep offering for the whole horizon
	// (the run is horizon-bounded; leftover budget just never sends).
	frameBits := float64(opts.FrameLen * 8)
	bulkBudget := func(gbps float64) uint64 {
		return uint64(gbps*1e9*opts.Horizon.Seconds()/frameBits) + 64
	}
	bulk := 0
	for _, p := range plan {
		core := 0
		if opts.Cores > 1 && p.class != qos.ClassEF {
			core = 1 + bulk%(opts.Cores-1)
			bulk++
		}
		cc := fnet.ClientConfig{Timeout: opts.Timeout, Flow: traffic.Flow{FrameLen: opts.FrameLen, DSCP: p.dscp}}
		if p.class == qos.ClassEF {
			cc.Mode, cc.Outstanding, cc.Requests = fnet.ModeClosed, opts.EFWindow, opts.EFRequests
		} else {
			cc.Mode, cc.RateBps, cc.Requests = fnet.ModeOpen, traffic.Gbps(p.gbps), bulkBudget(p.gbps)
		}
		d.RPC = append(d.RPC, scenario.RPCClient{Core: core, ClientConfig: cc})
	}
	d.Horizon, d.UntilIdle = opts.Horizon, true
	r := build(d)
	res := r.Run()

	// Aggregate fabric drops for the unscheduled setups; the armed
	// setup reads the server downlink's per-class split instead.
	var totalDrops uint64
	classDrops := map[string]uint64{}
	if f := res.Fabric; f != nil {
		for _, l := range f.Links {
			totalDrops += l.Stats.TailDrops + l.Stats.DownDrops + l.Stats.AQMDrops
			for _, cc := range l.Classes {
				classDrops[cc.Class] += cc.Stats.TailDrops + cc.Stats.AQMDrops
			}
		}
	}

	var rows []QoSRow
	for class := 0; class < qos.NumClasses; class++ {
		row := QoSRow{
			Setup:   setup.name,
			Class:   qos.Class(class).String(),
			Aborted: res.Aborted != nil,
		}
		h := stats.NewHistogram(5)
		var rxBytes uint64
		var first, last sim.Time
		for j, c := range r.Cluster.Clients {
			if plan[j].class != qos.Class(class) {
				continue
			}
			st := c.Stats()
			row.Clients++
			row.Issued += st.Issued
			row.Responses += st.Responses
			row.Timeouts += st.Timeouts
			rxBytes += c.RxBytes()
			if fs := c.FirstSend(); row.Clients == 1 || fs < first {
				first = fs
			}
			if lr := c.LastResp(); lr > last {
				last = lr
			}
			h.Merge(c.Hist())
		}
		if row.Clients == 0 {
			continue
		}
		if setup.armed {
			row.Drops = classDrops[row.Class]
		} else {
			row.Drops = totalDrops
		}
		row.GoodputGbps = fnet.GoodputBps(rxBytes, first, last) / 1e9
		if h.Count() > 0 {
			row.P50US = h.Quantile(0.50).Microseconds()
			row.P99US = h.Quantile(0.99).Microseconds()
			row.P999US = h.Quantile(0.999).Microseconds()
		}
		rows = append(rows, row)
	}
	return rows
}

// QoS runs the class-isolation comparison: the same contended workload
// under plain DDIO, plain IDIO, and QoS-aware IDIO, reporting each
// service class's latency and goodput. The interesting contrast is the
// EF row: without the class-aware fabric its p99 rides the bulk queue;
// with it, strict priority holds the SLO through saturation.
func QoS(opts QoSOpts) []QoSRow {
	per := RunCells(opts.Parallelism, qosSetups(), func(s qosSetup) []QoSRow {
		return runQoSCell(opts, s)
	})
	var rows []QoSRow
	for _, p := range per {
		rows = append(rows, p...)
	}
	return rows
}

// QoSHeader describes the table columns.
func QoSHeader() []string {
	return []string{"setup", "class", "clients", "issued", "resp", "timeouts", "drops", "goodputGbps", "p50us", "p99us", "p999us", "aborted"}
}

// Row renders one class/setup cell.
func (r QoSRow) Row() []string {
	return []string{
		r.Setup,
		r.Class,
		fmt.Sprintf("%d", r.Clients),
		fmt.Sprintf("%d", r.Issued),
		fmt.Sprintf("%d", r.Responses),
		fmt.Sprintf("%d", r.Timeouts),
		fmt.Sprintf("%d", r.Drops),
		fmt.Sprintf("%.2f", r.GoodputGbps),
		fmt.Sprintf("%.2f", r.P50US),
		fmt.Sprintf("%.2f", r.P99US),
		fmt.Sprintf("%.2f", r.P999US),
		fmt.Sprintf("%t", r.Aborted),
	}
}
