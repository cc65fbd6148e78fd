package experiment

import (
	"slices"
	"strconv"

	idiocore "idio/internal/core"
	fnet "idio/internal/net"
	"idio/internal/qos"
	"idio/internal/scenario"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// The qos entry holds a latency-critical EF population to its SLO (or
// not) while bulk AF traffic and a CS1 scavenger saturate the server
// link, under plain DDIO, plain IDIO, and IDIO with the class-aware
// fabric and placement policy. The contrast is the EF row: without the
// class-aware fabric its p99 rides the bulk queue; with it, strict
// priority holds the SLO through saturation.

// qosPlan is the client population in installation order: two
// closed-loop EF clients, then open-loop bulk AF41 and AF21 and the CS1
// scavenger, whose 12 Gbps saturate the 10 GbE server link at ~120%.
var qosPlan = []struct {
	class qos.Class
	dscp  uint8
	gbps  float64 // open-loop load; 0 for the closed-loop EF clients
}{
	{qos.ClassEF, 46, 0}, {qos.ClassEF, 46, 0},
	{qos.ClassAF41, 34, 2}, {qos.ClassAF41, 34, 2},
	{qos.ClassAF21, 18, 2},
	{qos.ClassCS1, 8, 6},
}

// qosCells run qosPlan under each setup: EF clients on core 0 with
// window 4 and a budget of efRequests each, the rest on core 1 with
// budgets that outlast the horizon.
func qosCells(g geometry, efRequests uint64, horizon sim.Duration) []*cell {
	setups := []struct {
		name  string
		pol   idiocore.Policy
		armed bool
	}{{"ddio", idiocore.PolicyDDIO, false}, {"idio", idiocore.PolicyIDIO, false}, {"idio+qos", idiocore.PolicyIDIO, true}}
	var cells []*cell
	for _, s := range setups {
		d := echoCluster(s.pol, 2, g, len(qosPlan), fnet.LinkConfig{RateBps: 10e9, Delay: 2 * sim.Microsecond})
		armWatchdog(&d.Host)
		if s.armed {
			d.Host.QoS = qos.DefaultConfig()
		}
		for _, p := range qosPlan {
			c := scenario.RPCClient{ClientConfig: fnet.ClientConfig{Flow: traffic.Flow{FrameLen: 1514, DSCP: p.dscp}}}
			cc := &c.ClientConfig
			if p.class == qos.ClassEF {
				cc.Mode, cc.Outstanding, cc.Requests = fnet.ModeClosed, 4, efRequests
			} else {
				c.Core = 1
				cc.Mode, cc.RateBps = fnet.ModeOpen, traffic.Gbps(p.gbps)
				cc.Requests = uint64(p.gbps*1e9*horizon.Seconds()/float64(1514*8)) + 64
			}
			d.RPC = append(d.RPC, c)
		}
		d.Horizon, d.UntilIdle = horizon, true
		cells = append(cells, &cell{labels: []string{s.name}, desc: d})
	}
	return cells
}

// qosClass is one row: a service class's clients in one setup. drops
// is the class's own tail and AQM drops on the scheduled egress ports
// when QoS is armed; unscheduled setups have no per-class split, and
// every row carries the fabric's total.
type qosClass struct {
	name  string
	n     int
	c     clients
	drops uint64
}

var qosTable = table{
	title: "QoS: per-class SLOs under a saturating bulk+scavenger mix (DDIO vs IDIO vs QoS-aware IDIO)",
	head:  []string{"setup"},
	parts: qosClasses,
	cols: slices.Concat([]col{
		{"class", func(r *run) string { return r.part.(qosClass).name }},
		{"clients", func(r *run) string { return strconv.Itoa(r.part.(qosClass).n) }},
	}, countCols(classClients), []col{
		num("drops", "%.0f", func(r *run) float64 { return float64(r.part.(qosClass).drops) }),
	}, latencyCols(classClients), []col{abortedCol}),
}

func classClients(r *run) clients { return r.part.(qosClass).c }

// qosClasses aggregates the run's clients by their qosPlan class.
func qosClasses(r *run) []any {
	classDrops := map[string]uint64{}
	if f := r.res.Fabric; f != nil {
		for _, l := range f.Links {
			for _, cc := range l.Classes {
				classDrops[cc.Class] += cc.Stats.TailDrops + cc.Stats.AQMDrops
			}
		}
	}
	var rows []any
	for class := qos.Class(0); class < qos.NumClasses; class++ {
		row := qosClass{name: class.String(), drops: fabricDrops(r.res)}
		if r.desc.Host.QoS != nil {
			row.drops = classDrops[row.name]
		}
		h := stats.NewHistogram(5)
		var rxBytes uint64
		var first, last sim.Time
		for j, c := range r.rig.Cluster.Clients {
			if qosPlan[j].class != class {
				continue
			}
			st := c.Stats()
			row.n++
			row.c.issued += st.Issued
			row.c.resp += st.Responses
			row.c.timeouts += st.Timeouts
			rxBytes += c.RxBytes()
			if fs := c.FirstSend(); row.n == 1 || fs < first {
				first = fs
			}
			last = max(last, c.LastResp())
			h.Merge(c.Hist())
		}
		if row.n == 0 {
			continue
		}
		row.c.goodputBps = fnet.GoodputBps(rxBytes, first, last)
		if h.Count() > 0 {
			row.c.p50, row.c.p99, row.c.p999 = h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999)
		}
		rows = append(rows, row)
	}
	return rows
}
