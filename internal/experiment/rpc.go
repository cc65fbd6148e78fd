package experiment

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	idiocore "idio/internal/core"
	fnet "idio/internal/net"
	"idio/internal/scenario"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// RPCRow is one cell of the end-to-end RPC sweep: a policy run at one
// offered-load point (an open-loop rate or a closed-loop window),
// measured at the clients — latency from request send to response
// receive, across the full fabric → NIC → core → TX → fabric journey.
type RPCRow struct {
	Policy idiocore.Policy
	Mode   fnet.Mode
	// OfferedGbps is the aggregate open-loop offered load (0 for
	// closed mode); Window is the per-client closed-loop outstanding
	// count (0 for open mode).
	OfferedGbps float64
	Window      int

	Issued    uint64
	Responses uint64
	Timeouts  uint64
	// Drops aggregates fabric losses (tail + link-down) with DUT-side
	// ring/pool drops.
	Drops       uint64
	GoodputGbps float64
	P50US       float64
	P99US       float64
	P999US      float64
	Aborted     bool
}

// RPCOpts parameterises the sweep.
type RPCOpts struct {
	// Cores is the DUT core count; each core runs an L2Fwd NF echoing
	// requests back. Clients round-robin over the cores.
	Cores   int
	Clients int
	// Link is the per-hop link template (rate, propagation delay,
	// egress queue depth) used for client and server links alike.
	Link     fnet.LinkConfig
	FrameLen int
	// Requests is the per-client request budget for each cell.
	Requests uint64
	// LoadsGbps are the aggregate open-loop offered loads to sweep;
	// Windows are the per-client closed-loop outstanding counts.
	LoadsGbps []float64
	Windows   []int
	// Timeout bounds the per-request response wait (0 = default).
	Timeout sim.Duration
	Horizon sim.Duration
	Geometry
	// Parallelism bounds the worker pool running independent cells
	// (0 = GOMAXPROCS, 1 = serial).
	Parallelism int

	// base, when set, is the run every cell starts from instead of
	// Cores through Horizon: a compiled scenario (Env.Base). Geometry
	// still applies to its host.
	base *scenario.Desc
}

// DefaultRPCOpts sweeps open-loop loads up to and past the two-core
// DUT's service capacity plus a ladder of closed-loop windows, with
// four clients on 100 GbE links.
func DefaultRPCOpts() RPCOpts {
	return RPCOpts{
		Cores:     2,
		Clients:   4,
		Link:      link100G,
		FrameLen:  1514,
		Requests:  4096,
		LoadsGbps: []float64{5, 10, 20, 30, 40, 50},
		Windows:   []int{1, 4, 16, 64},
		Horizon:   80 * sim.Millisecond,
		Geometry:  Geometry{RingSize: 1024},
	}
}

// baseDesc is the run every cell edits: opts.base, or the sweep
// topology (one L2Fwd NF per core, opts.Clients RPC clients).
func (opts RPCOpts) baseDesc() scenario.Desc {
	if opts.base != nil {
		return *opts.base
	}
	d := echoCluster(idiocore.PolicyDDIO, opts.Cores, opts.Geometry, opts.Clients, opts.Link)
	for i := 0; i < opts.Clients; i++ {
		d.RPC = append(d.RPC, scenario.RPCClient{Core: i % opts.Cores, ClientConfig: fnet.ClientConfig{
			Requests: opts.Requests,
			Timeout:  opts.Timeout,
			Flow:     traffic.Flow{FrameLen: opts.FrameLen},
		}})
	}
	d.Horizon, d.UntilIdle = opts.Horizon, true
	return d
}

// runRPCCell runs one sweep point of base to completion and summarises
// it: every client switches to mode at the aggregate open-loop load or
// the per-client window.
func runRPCCell(base scenario.Desc, g Geometry, pol idiocore.Policy, mode fnet.Mode, loadGbps float64, window int) RPCRow {
	d := base
	d.Host.Policy = pol
	g.apply(&d.Host)
	armWatchdog(&d.Host)
	d.RPC = slices.Clone(d.RPC)
	for i := range d.RPC {
		c := &d.RPC[i].ClientConfig
		c.Mode, c.RateBps, c.RampToBps, c.Outstanding = mode, 0, 0, window
		if mode == fnet.ModeOpen {
			c.RateBps = traffic.Gbps(loadGbps) / int64(len(d.RPC))
		}
	}
	res := build(d).Run()

	row := RPCRow{
		Policy:      pol,
		Mode:        mode,
		OfferedGbps: loadGbps,
		Window:      window,
		Drops:       res.NIC.RxDrops + res.NIC.PoolDrops + res.NIC.LinkDownDrops,
		Aborted:     res.Aborted != nil,
	}
	if f := res.Fabric; f != nil {
		for _, l := range f.Links {
			row.Drops += l.Stats.TailDrops + l.Stats.DownDrops
		}
	}
	if rpc := res.RPC; rpc != nil {
		row.Issued = rpc.Issued
		row.Responses = rpc.Responses
		row.Timeouts = rpc.Timeouts
		row.GoodputGbps = rpc.GoodputBps / 1e9
		row.P50US = rpc.P50.Microseconds()
		row.P99US = rpc.P99.Microseconds()
		row.P999US = rpc.P999.Microseconds()
	}
	return row
}

// RPC runs the latency-vs-offered-load sweep for DDIO and IDIO: every
// open-loop load point and every closed-loop window, each an
// independent cluster, fanned out over the worker pool. Row order is
// fixed (policies × loads, then policies × windows) regardless of
// parallelism. A base scenario's own operating point (its first
// client's window, or its aggregate rate to the Mbps) joins the axis.
func RPC(opts RPCOpts) []RPCRow {
	base := opts.baseDesc()
	loads, windows := slices.Clip(opts.LoadsGbps), slices.Clip(opts.Windows)
	if opts.base != nil && len(base.RPC) > 0 {
		switch c := base.RPC[0]; c.Mode {
		case fnet.ModeClosed:
			if !slices.Contains(windows, c.Outstanding) {
				windows = append(windows, c.Outstanding)
			}
		default:
			g := math.Round(float64(c.RateBps)*float64(len(base.RPC))/1e6) / 1e3
			if !slices.Contains(loads, g) {
				loads = append(loads, g)
			}
		}
	}
	type cell struct {
		pol    idiocore.Policy
		mode   fnet.Mode
		load   float64
		window int
	}
	var cells []cell
	for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
		for _, load := range loads {
			cells = append(cells, cell{pol: pol, mode: fnet.ModeOpen, load: load})
		}
		for _, w := range windows {
			cells = append(cells, cell{pol: pol, mode: fnet.ModeClosed, window: w})
		}
	}
	return RunCells(opts.Parallelism, cells, func(c cell) RPCRow {
		return runRPCCell(base, opts.Geometry, c.pol, c.mode, c.load, c.window)
	})
}

// RPCHeader describes the table columns.
func RPCHeader() []string {
	return []string{"policy", "mode", "offered", "issued", "resp", "timeouts", "drops", "goodputGbps", "p50us", "p99us", "p999us", "aborted"}
}

// Row renders one sweep cell. The offered column carries the swept
// axis: aggregate Gbps for open loops, window size for closed loops.
func (r RPCRow) Row() []string {
	offered := strconv.FormatFloat(r.OfferedGbps, 'f', -1, 64) + "G"
	if r.Mode == fnet.ModeClosed {
		offered = fmt.Sprintf("w=%d", r.Window)
	}
	return []string{
		r.Policy.Name(),
		r.Mode.String(),
		offered,
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
