package experiment

import (
	"fmt"

	idiocore "idio/internal/core"
	"idio/internal/fault"
	fnet "idio/internal/net"
	"idio/internal/scenario"
	"idio/internal/sim"
)

// DegradationRow is one cell of the fault-rate sweep: a policy run
// under a given fault intensity, with its drop, tail-latency and
// writeback statistics plus the same-policy fault-free baseline's
// writeback count for inflation reporting.
type DegradationRow struct {
	Policy idiocore.Policy
	// Layer names the perturbed layer: "host" sweeps per-TLP PCIe
	// corruption plus DRAM/CPU background faults on a single-host
	// burst; "fabric" sweeps link flaps and rate degradation on a
	// 2-client closed-loop RPC topology.
	Layer string
	// Rate is the fault intensity: for host cells the per-TLP
	// probability of both corruption (metadata bit flip) and poisoning
	// (discarded write); for fabric cells the same value scales the
	// flap/degradation frequency.
	Rate float64

	Processed uint64
	// Drops aggregates every loss class: ring overflow, pool
	// exhaustion, link-down windows and mis-steered packets.
	Drops uint64
	P99US float64
	// MLCWB is the fault run's MLC writeback count; WBInflation is
	// MLCWB normalized to the same policy's zero-fault run (how much
	// extra data movement the faults provoked).
	MLCWB       uint64
	WBInflation float64
	// FaultsInjected totals the injector's perturbations; MisSteers is
	// how many corrupted TLPs decoded to a non-existent core and were
	// degraded to the LLC-default steering.
	FaultsInjected uint64
	MisSteers      uint64
	// Aborted records a watchdog trip (graceful structured abort
	// instead of a hang); healthy sweeps report false everywhere.
	Aborted bool
}

// DegradationOpts parameterises the sweep.
type DegradationOpts struct {
	Geometry
	RateGbps float64
	// Rates are the per-TLP fault probabilities to sweep (0 is always
	// run first per policy as the normalization baseline).
	Rates []float64
	// Seed drives the fault layer's randomness; a fixed seed makes the
	// whole sweep reproducible.
	Seed    int64
	Horizon sim.Duration
	// Parallelism bounds the worker pool running independent sweep
	// cells (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// DefaultDegradationOpts sweeps three fault rates spanning "noisy
// link" (0.1%) to "failing link" (5%) at the Fig. 9 burst rate.
func DefaultDegradationOpts() DegradationOpts {
	return DegradationOpts{
		Geometry: Geometry{RingSize: 1024},
		RateGbps: 100,
		Rates:    []float64{0.001, 0.01, 0.05},
		Seed:     42,
		Horizon:  9 * sim.Millisecond,
	}
}

// faultConfigFor builds the injected-adversity profile for one sweep
// point: per-TLP corruption and poisoning at the swept rate, plus a
// fixed background of environmental faults (DRAM latency spikes and
// slow-core stalls) so the sweep also exercises the memory- and
// CPU-level injectors.
func faultConfigFor(rate float64, seed int64) *fault.Config {
	if rate <= 0 {
		return nil
	}
	return &fault.Config{
		Seed: seed,
		PCIe: &fault.PCIeConfig{CorruptProb: rate, PoisonProb: rate},
		DRAMSpike: &fault.DRAMSpikeConfig{
			Period: 500 * sim.Microsecond,
			Extra:  200 * sim.Nanosecond,
			Length: 50 * sim.Microsecond,
		},
		CoreStall: &fault.CoreStallConfig{
			Period: 1 * sim.Millisecond,
			Stall:  20 * sim.Microsecond,
			Core:   -1,
		},
	}
}

// fabricFaultConfigFor scales fabric adversity with the swept rate:
// the lightest rate (0.1%) flaps a link roughly every 2 ms and opens
// a rate-degradation window roughly every 1 ms; heavier rates shrink
// the periods proportionally (floored so events still serialize).
func fabricFaultConfigFor(rate float64, seed int64) *fault.Config {
	if rate <= 0 {
		return nil
	}
	scale := 0.001 / rate
	period := func(base sim.Duration) sim.Duration {
		d := sim.Duration(float64(base) * scale)
		if d < 20*sim.Microsecond {
			d = 20 * sim.Microsecond
		}
		return d
	}
	return &fault.Config{
		Seed: seed,
		FabricFlap: &fault.FabricFlapConfig{
			Period: period(2 * sim.Millisecond),
			Down:   15 * sim.Microsecond,
		},
		FabricDegrade: &fault.FabricDegradeConfig{
			Period: period(1 * sim.Millisecond),
			Factor: 0.25,
			Length: 100 * sim.Microsecond,
		},
	}
}

// fabricDegradationCell runs one fabric-layer sweep point: a 2-client
// closed-loop RPC topology (L2Fwd echo on each DUT core) whose links
// flap and degrade at the swept intensity. P99 here is end-to-end
// client latency, not server-side service time.
func fabricDegradationCell(pol idiocore.Policy, rate float64, opts DegradationOpts) DegradationRow {
	d := echoCluster(pol, 2, opts.Geometry, 2, link100G)
	d.Host.Faults = fabricFaultConfigFor(rate, opts.Seed)
	armWatchdog(&d.Host)
	for i := 0; i < 2; i++ {
		d.RPC = append(d.RPC, scenario.RPCClient{Core: i, ClientConfig: fnet.ClientConfig{
			Mode:        fnet.ModeClosed,
			Outstanding: 16,
			Requests:    2048,
		}})
	}
	d.Horizon, d.UntilIdle = opts.Horizon, true
	res := build(d).Run()

	row := DegradationRow{
		Policy:         pol,
		Layer:          "fabric",
		Rate:           rate,
		Processed:      res.TotalProcessed(),
		Drops:          res.NIC.RxDrops + res.NIC.PoolDrops + res.NIC.LinkDownDrops + res.NIC.MisSteers,
		MLCWB:          res.Hier.MLCWriteback,
		FaultsInjected: res.Faults.Total(),
		MisSteers:      res.CtrlMisSteers,
		Aborted:        res.Aborted != nil,
	}
	if f := res.Fabric; f != nil {
		for _, l := range f.Links {
			row.Drops += l.Stats.TailDrops + l.Stats.DownDrops
		}
	}
	if rpc := res.RPC; rpc != nil {
		row.P99US = rpc.P99.Microseconds()
	}
	return row
}

// Degradation runs the sweep: for DDIO and IDIO, a fault-free
// baseline followed by each fault rate — first on the host layer
// (PCIe/DRAM/CPU faults on a single-host burst), then on the fabric
// layer (link flaps and rate degradation on a closed-loop RPC
// topology) — reporting per-rate drops, p99 latency and writeback
// inflation. Every run arms the watchdog so a fault-induced livelock
// surfaces as a structured abort, not a hang.
func Degradation(opts DegradationOpts) []DegradationRow {
	// Every (layer, policy, rate) point is an independent cell; each
	// block's zero-fault baseline (cell 0 of the block) supplies the
	// WBInflation denominator once all cells return. Blocks stay
	// perPol-aligned: [DDIO host][IDIO host][DDIO fabric][IDIO fabric].
	type cell struct {
		pol    idiocore.Policy
		rate   float64
		fabric bool
	}
	perPol := 1 + len(opts.Rates)
	var cells []cell
	for _, fabric := range []bool{false, true} {
		for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
			for _, rate := range append([]float64{0}, opts.Rates...) {
				cells = append(cells, cell{pol: pol, rate: rate, fabric: fabric})
			}
		}
	}
	rows := RunCells(opts.Parallelism, cells, func(c cell) DegradationRow {
		if c.fabric {
			return fabricDegradationCell(c.pol, c.rate, opts)
		}
		d := gem5NFs(c.pol, opts.Geometry, false)
		d.Host.Faults = faultConfigFor(c.rate, opts.Seed)
		armWatchdog(&d.Host)
		_, res := runBurst(d, opts.RateGbps, opts.Horizon)

		return DegradationRow{
			Policy:         c.pol,
			Layer:          "host",
			Rate:           c.rate,
			Processed:      res.TotalProcessed(),
			Drops:          res.NIC.RxDrops + res.NIC.PoolDrops + res.NIC.LinkDownDrops + res.NIC.MisSteers,
			P99US:          res.P99Across().Microseconds(),
			MLCWB:          res.Hier.MLCWriteback,
			FaultsInjected: res.Faults.Total(),
			MisSteers:      res.CtrlMisSteers,
			Aborted:        res.Aborted != nil,
		}
	})
	for i := range rows {
		baseWB := rows[(i/perPol)*perPol].MLCWB
		rows[i].WBInflation = ratio(float64(rows[i].MLCWB), float64(baseWB))
	}
	return rows
}

// DegradationHeader describes the table columns.
func DegradationHeader() []string {
	return []string{"layer", "policy", "faultRate", "processed", "drops", "p99us", "mlcWB", "wbInfl", "injected", "missteer", "aborted"}
}

// Row renders one sweep cell.
func (r DegradationRow) Row() []string {
	return []string{
		r.Layer,
		r.Policy.Name(),
		fmt.Sprintf("%.3f", r.Rate),
		fmt.Sprintf("%d", r.Processed),
		fmt.Sprintf("%d", r.Drops),
		fmt.Sprintf("%.1f", r.P99US),
		fmt.Sprintf("%d", r.MLCWB),
		fmt.Sprintf("%.2f", r.WBInflation),
		fmt.Sprintf("%d", r.FaultsInjected),
		fmt.Sprintf("%d", r.MisSteers),
		fmt.Sprintf("%t", r.Aborted),
	}
}
