package experiment

import (
	"fmt"

	idiocore "idio/internal/core"
	fnet "idio/internal/net"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// ChurnRow is one (setup, flow population) cell of the million-flow
// sweep: constant offered load spread over an ever-larger concurrent
// flow population, under DDIO or IDIO placement.
type ChurnRow struct {
	Setup string
	// Flows is the aggregate concurrent flow population across clients.
	Flows int

	Issued    uint64
	Responses uint64
	Timeouts  uint64
	// Arrivals/Departures count flow lifecycle churn within the
	// horizon; Active is the resident population at the end.
	Arrivals   uint64
	Departures uint64
	Active     int
	// TableLoad is the worst per-client flow-table occupancy;
	// WheelCascades counts hashed-wheel long-deadline re-inspections
	// (non-zero exactly when think times outgrow the wheel span).
	TableLoad     float64
	WheelTicks    uint64
	WheelCascades uint64
	// NICTracked/NICRefusals expose the NIC flow-stats SRAM bound:
	// populations past its capacity show up as refusals, not evictions.
	NICTracked  int
	NICRefusals uint64
	// LLCIOLines is the LLC's I/O-classified occupancy at the end of
	// the run — the cache footprint the placement policy granted to
	// inbound DMA.
	LLCIOLines  int
	GoodputGbps float64
	P50US       float64
	P99US       float64
	P999US      float64
	Aborted     bool
}

// ChurnOpts parameterises the sweep.
type ChurnOpts struct {
	// Cores is the DUT core count; churn flows spread over all of them
	// through RSS (no per-flow steering rules exist at this scale).
	Cores int
	// Clients is the number of client hosts the population splits over.
	Clients int
	// Flows lists the aggregate concurrent-flow populations to sweep.
	Flows []int
	// OfferedGbps is the aggregate request load, held constant across
	// the sweep: per-flow think time scales proportionally to the
	// population, so a bigger population means colder per-flow state —
	// the regime that stresses flow-table and timer-wheel scale rather
	// than the link.
	OfferedGbps float64
	FrameLen    int
	Timeout     sim.Duration
	// Horizon bounds every cell; large populations are intentionally
	// cut mid-churn (Active carries the resident count).
	Horizon sim.Duration
	Seed    int64
	Geometry
	// Parallelism bounds the worker pool over independent cells.
	Parallelism int
}

// DefaultChurnOpts sweeps 1k -> 1M concurrent flows at ~8 Gbps of
// offered request load on the default 100 GbE fabric.
func DefaultChurnOpts() ChurnOpts {
	return ChurnOpts{
		Cores:       2,
		Clients:     2,
		Flows:       []int{1_000, 32_000, 1_000_000},
		OfferedGbps: 8,
		FrameLen:    1514,
		Horizon:     20 * sim.Millisecond,
		Geometry:    Geometry{RingSize: 1024},
	}
}

// churnSetup is one placement-policy column of the comparison.
type churnSetup struct {
	name string
	pol  idiocore.Policy
}

func churnSetups() []churnSetup {
	return []churnSetup{
		{name: "ddio", pol: idiocore.PolicyDDIO},
		{name: "idio", pol: idiocore.PolicyIDIO},
	}
}

// churnCell is one grid cell: a policy setup at one flow population.
type churnCell struct {
	setup churnSetup
	flows int
}

// churnShare splits an aggregate count evenly over n slots, remainder
// to the lowest slots (the same convention the scenario schema uses).
func churnShare(total, n, i int) int {
	s := total / n
	if i < total%n {
		s++
	}
	return s
}

// runChurnCell builds one cluster, installs the split population, and
// runs to the horizon.
func runChurnCell(opts ChurnOpts, cell churnCell) ChurnRow {
	d := echoCluster(cell.setup.pol, opts.Cores, opts.Geometry, opts.Clients, link100G)
	// Constant offered load: rate requests/s aggregate, so the mean
	// think time is population/rate. The request budget is sized past
	// what the horizon can spend — the horizon, not the budget, ends
	// every cell, keeping the offered process identical across cells.
	rate := opts.OfferedGbps * 1e9 / float64(opts.FrameLen*8)
	think := sim.Duration(float64(sim.Second) * float64(cell.flows) / rate)
	budget := uint64(rate*opts.Horizon.Seconds())*2 + 64
	for i := 0; i < opts.Clients; i++ {
		d.Churn = append(d.Churn, fnet.ChurnConfig{
			Flows:    churnShare(cell.flows, opts.Clients, i),
			Requests: uint64(churnShare(int(budget), opts.Clients, i)),
			Timeout:  opts.Timeout,
			Think:    think,
			Seed:     opts.Seed + int64(i),
			Flow:     traffic.Flow{FrameLen: opts.FrameLen},
		})
	}
	d.Horizon = opts.Horizon
	r := build(d)
	res := r.Run()

	row := ChurnRow{
		Setup:      cell.setup.name,
		Flows:      cell.flows,
		LLCIOLines: r.Sys.Hier.LLCOccupancyIO(),
		Aborted:    res.Aborted != nil,
	}
	if ch := res.Churn; ch != nil {
		row.Issued = ch.Issued
		row.Responses = ch.Responses
		row.Timeouts = ch.Timeouts
		row.Arrivals = ch.Arrivals
		row.Departures = ch.Departures
		row.Active = ch.ActiveFlows
		row.TableLoad = ch.TableLoad
		row.WheelTicks = ch.WheelTicks
		row.WheelCascades = ch.WheelCascades
		row.NICTracked = ch.NICFlowsTracked
		row.NICRefusals = ch.NICFlowRefusals
		row.GoodputGbps = ch.GoodputBps / 1e9
		row.P50US = ch.P50.Microseconds()
		row.P99US = ch.P99.Microseconds()
		row.P999US = ch.P999.Microseconds()
	}
	return row
}

// Churn runs the million-flow engine sweep: the same offered load over
// growing concurrent-flow populations, DDIO vs IDIO. The interesting
// columns are structural: per-request latency stays flat while the
// population grows three orders of magnitude (compact table + hashed
// wheel), the NIC's flow-stats SRAM overflows into refusals at the
// top of the sweep, and the LLC's I/O footprint tracks the placement
// policy rather than the flow count.
func Churn(opts ChurnOpts) []ChurnRow {
	var cells []churnCell
	for _, s := range churnSetups() {
		for _, n := range opts.Flows {
			cells = append(cells, churnCell{setup: s, flows: n})
		}
	}
	return RunCells(opts.Parallelism, cells, func(c churnCell) ChurnRow {
		return runChurnCell(opts, c)
	})
}

// ChurnHeader describes the table columns.
func ChurnHeader() []string {
	return []string{"setup", "flows", "issued", "resp", "timeouts", "arrivals", "departures", "active", "tableLoad", "wheelTicks", "cascades", "nicTracked", "nicRefusals", "llcIOLines", "goodputGbps", "p50us", "p99us", "p999us", "aborted"}
}

// Row renders one cell.
func (r ChurnRow) Row() []string {
	return []string{
		r.Setup,
		fmt.Sprintf("%d", r.Flows),
		fmt.Sprintf("%d", r.Issued),
		fmt.Sprintf("%d", r.Responses),
		fmt.Sprintf("%d", r.Timeouts),
		fmt.Sprintf("%d", r.Arrivals),
		fmt.Sprintf("%d", r.Departures),
		fmt.Sprintf("%d", r.Active),
		fmt.Sprintf("%.4f", r.TableLoad),
		fmt.Sprintf("%d", r.WheelTicks),
		fmt.Sprintf("%d", r.WheelCascades),
		fmt.Sprintf("%d", r.NICTracked),
		fmt.Sprintf("%d", r.NICRefusals),
		fmt.Sprintf("%d", r.LLCIOLines),
		fmt.Sprintf("%.2f", r.GoodputGbps),
		fmt.Sprintf("%.2f", r.P50US),
		fmt.Sprintf("%.2f", r.P99US),
		fmt.Sprintf("%.2f", r.P999US),
		fmt.Sprintf("%t", r.Aborted),
	}
}
