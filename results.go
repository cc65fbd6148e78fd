package idio

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"idio/internal/fault"
	"idio/internal/hier"
	fnet "idio/internal/net"
	"idio/internal/nic"
	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/sim"
	"idio/internal/stats"
)

// LinkResult is one fabric link's counters, labelled by link name.
// Classes is non-nil only for links running the QoS scheduled egress
// (one entry per service class, class order).
type LinkResult struct {
	Name    string
	Stats   fnet.LinkStats
	Classes []LinkClassResult
}

// LinkClassResult is one service class's slice of a scheduled link's
// counters.
type LinkClassResult struct {
	Class string
	Stats fnet.ClassStats
}

// FabricResults summarises the network fabric of a Cluster run: every
// link's counters (slot order) and the switch's forwarding decisions.
// Nil for single-host runs.
type FabricResults struct {
	Links  []LinkResult
	Switch fnet.SwitchStats
}

// RPCResults aggregates end-to-end request/response measurements
// across every RPC client of a Cluster run. Nil when no clients ran.
type RPCResults struct {
	Issued    uint64
	Responses uint64
	Timeouts  uint64
	Late      uint64
	// Retries/Hedges/Failed mirror net.ClientStats: backoff
	// retransmissions, speculative duplicates, and requests abandoned
	// after the retry budget. Once drained, Issued == Responses + Failed.
	Retries uint64
	Hedges  uint64
	Failed  uint64
	// GoodputBps is aggregate response bits per second from the first
	// request sent to the last response received across clients.
	GoodputBps float64
	// P50/P99/P999 are end-to-end latency percentiles over all clients'
	// matched responses, read from the merge of the per-client
	// histograms.
	P50  sim.Duration
	P99  sim.Duration
	P999 sim.Duration
	// Classes breaks the summary down by service class when the cluster
	// runs a QoS policy (classes with no clients are omitted); nil
	// otherwise.
	Classes []RPCClassResult
}

// ChurnResults aggregates the flow-churn workload's measurements
// across every churn client of a Cluster run. Nil when no churn
// clients ran, keeping legacy outputs unchanged.
type ChurnResults struct {
	Issued    uint64 // wire transmissions (first sends + resends)
	Responses uint64
	Timeouts  uint64
	Late      uint64
	// Arrivals/Departures count flow lifecycle events; ActiveFlows is
	// the resident population at collection time (non-zero when the
	// horizon cut the run short of draining).
	Arrivals    uint64
	Departures  uint64
	ActiveFlows int
	// TableLoad is the worst per-client flow-table occupancy fraction;
	// WheelTicks/WheelCascades sum the hashed-wheel activity.
	TableLoad     float64
	WheelTicks    uint64
	WheelCascades uint64
	// NICFlowsTracked/NICFlowRefusals snapshot the NIC's per-flow
	// statistics table: flows resident vs. insertions refused by the
	// hardware capacity bound.
	NICFlowsTracked int
	NICFlowRefusals uint64
	GoodputBps      float64
	P50             sim.Duration
	P99             sim.Duration
	P999            sim.Duration
}

// RPCClassResult is one service class's slice of the RPC summary: the
// clients whose request flow maps to this class, their aggregate
// counts, goodput, and merged latency percentiles.
type RPCClassResult struct {
	Class      string
	Clients    int
	Issued     uint64
	Responses  uint64
	Timeouts   uint64
	GoodputBps float64
	P50        sim.Duration
	P99        sim.Duration
	P999       sim.Duration
}

// CoreResult summarises one core's software stack.
type CoreResult struct {
	Processed uint64
	P50       sim.Duration
	P99       sim.Duration
	Mean      sim.Duration
	BusyTime  sim.Duration
	// FirstPacketAt / LastDoneAt bracket the core's processing span.
	FirstPacketAt sim.Time
	LastDoneAt    sim.Time
	// Demand is the core's memory-access breakdown by service level.
	Demand hier.CoreDemand
}

// Results is the full measurement snapshot of a run.
type Results struct {
	Now   sim.Time
	Hier  hier.Stats
	NIC   nic.Stats
	Cores []CoreResult

	DRAMReads     uint64
	DRAMWrites    uint64
	DRAMRowHits   uint64
	DRAMRowMisses uint64
	// DRAMPenalized counts accesses served during an injected
	// latency-spike window.
	DRAMPenalized uint64

	// IOMMUReadFaults / IOMMUWriteFaults count DMA transactions the
	// IOMMU rejected (dropped before touching memory). Always zero
	// when the IOMMU is disabled.
	IOMMUReadFaults  uint64
	IOMMUWriteFaults uint64

	// CtrlMisSteers counts TLPs whose decoded metadata named a
	// non-existent destination core (corrupted in flight); the
	// controller degraded them to the LLC default instead of crashing.
	CtrlMisSteers uint64

	// Faults snapshots the fault injectors' perturbation counts; the
	// zero value means no fault layer was configured.
	Faults fault.Stats

	// PktPool snapshots the host packet pool's recycling counters.
	// After a drained run Outstanding must be zero — a non-zero value
	// means pooled packets leaked (a lifecycle bug), and WriteStats
	// surfaces the full accounting.
	PktPool pkt.PoolStats

	// Fabric and RPC carry the network-fabric and client-side summaries
	// of a Cluster run; both are nil for single-host runs, so existing
	// outputs are unchanged.
	Fabric *FabricResults
	RPC    *RPCResults
	// Churn carries the flow-churn workload summary; nil unless churn
	// clients ran.
	Churn *ChurnResults

	// Aborted is non-nil when the run was stopped by the simulator
	// watchdog rather than reaching its horizon.
	Aborted *sim.WatchdogError

	// ExeTime is the burst processing time: first inbound DMA to the
	// last packet completion across cores (Fig. 10's Exe Time).
	ExeTime sim.Duration

	// Timelines (nil when disabled in config): MLC writebacks, LLC
	// writebacks, MLC invalidations, DMA requests, DRAM reads/writes.
	MLCWBTL  *stats.Timeline
	LLCWBTL  *stats.Timeline
	MLCInvTL *stats.Timeline
	DMATL    *stats.Timeline
	DRAMRdTL *stats.Timeline
	DRAMWrTL *stats.Timeline

	// Metrics is the observability registry's snapshot at Collect time,
	// in registration order: every WriteStats counter plus component
	// gauges the flat stats file does not carry. WriteJSON serialises
	// this view.
	Metrics []obs.Sample
	// MetricSeries holds the periodic registry snapshots recorded when
	// Config.Obs.MetricsInterval > 0 (nil otherwise).
	MetricSeries *obs.Series
}

// Collect snapshots the current statistics without advancing time.
func (s *System) Collect() Results {
	r := Results{
		Now:           s.Sim.Now(),
		Hier:          s.Hier.Stats(),
		NIC:           s.NIC.Stats(),
		DRAMReads:     s.Hier.DRAM().Reads(),
		DRAMWrites:    s.Hier.DRAM().Writes(),
		DRAMRowHits:   s.Hier.DRAM().RowHits(),
		DRAMRowMisses: s.Hier.DRAM().RowMisses(),
		DRAMPenalized: s.Hier.DRAM().PenalizedAccesses(),
		CtrlMisSteers: s.Controller.MisSteers,
		MLCWBTL:       s.Hier.MLCWBTL,
		LLCWBTL:       s.Hier.LLCWBTL,
		MLCInvTL:      s.Hier.MLCInvTL,
		DMATL:         s.Hier.DMAReqTL,
		DRAMRdTL:      s.Hier.DRAM().ReadTL,
		DRAMWrTL:      s.Hier.DRAM().WriteTL,
	}
	// Multi-port systems aggregate the non-primary ports' NIC counters
	// so drops on any port are visible in the summary.
	for _, port := range s.ports[1:] {
		ps := port.Stats()
		r.NIC.RxPackets += ps.RxPackets
		r.NIC.RxBytes += ps.RxBytes
		r.NIC.RxDrops += ps.RxDrops
		r.NIC.TxPackets += ps.TxPackets
		r.NIC.DMAWrites += ps.DMAWrites
		r.NIC.DMAReads += ps.DMAReads
		r.NIC.PoolDrops += ps.PoolDrops
		r.NIC.LinkDownDrops += ps.LinkDownDrops
		r.NIC.MisSteers += ps.MisSteers
		r.NIC.AdmissionDrops += ps.AdmissionDrops
		r.NIC.InvariantViolations += ps.InvariantViolations
	}
	if s.IOMMU != nil {
		r.IOMMUReadFaults = s.IOMMU.ReadFaults
		r.IOMMUWriteFaults = s.IOMMU.WriteFaults
	}
	if s.Faults != nil {
		r.Faults = s.Faults.Stats()
	}
	r.PktPool = s.PktPool.Stats()
	var wd *sim.WatchdogError
	if err := s.Sim.Err(); err != nil {
		if werr, ok := err.(*sim.WatchdogError); ok {
			wd = werr
		}
	}
	r.Aborted = wd
	var lastDone sim.Time
	for i, c := range s.Cores {
		if c == nil {
			r.Cores = append(r.Cores, CoreResult{Demand: s.Hier.Demand(i)})
			continue
		}
		cr := CoreResult{
			Processed:     c.Processed,
			BusyTime:      c.BusyTime,
			FirstPacketAt: c.FirstPacketAt,
			LastDoneAt:    c.LastDoneAt,
			Demand:        s.Hier.Demand(i),
		}
		if c.Latencies.Count() > 0 {
			cr.P50 = c.Latencies.P50()
			cr.P99 = c.Latencies.P99()
			cr.Mean = c.Latencies.Mean()
		}
		r.Cores = append(r.Cores, cr)
		if c.LastDoneAt > lastDone {
			lastDone = c.LastDoneAt
		}
	}
	if first, ok := s.FirstDMAAt(); ok && lastDone > first {
		r.ExeTime = lastDone.Sub(first)
	}
	r.Metrics = s.obs.Registry().Snapshot()
	r.MetricSeries = s.obs.Metrics()
	return r
}

// ResultsSchemaVersion identifies the WriteJSON layout; bump it on any
// incompatible change to the emitted structure.
const ResultsSchemaVersion = 1

// jsonMetric is one registry sample in the WriteJSON output.
type jsonMetric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
}

// jsonSeries is the periodic metric time series in the WriteJSON
// output: one row of values per sample time, columns as in Names.
type jsonSeries struct {
	Names  []string    `json:"names"`
	TimeUS []float64   `json:"time_us"`
	Rows   [][]float64 `json:"rows"`
}

// jsonResults is the WriteJSON document.
type jsonResults struct {
	Schema    int          `json:"schema"`
	NowUS     float64      `json:"now_us"`
	ExeTimeUS float64      `json:"exe_time_us"`
	Aborted   bool         `json:"aborted"`
	Metrics   []jsonMetric `json:"metrics"`
	Series    *jsonSeries  `json:"series,omitempty"`
}

// WriteJSON emits the run's metrics as a schema-versioned JSON
// document sourced from the observability registry: each sample keeps
// its registration-order position, name, kind, and value, so two runs
// of the same configuration produce structurally identical documents.
// When periodic snapshots were enabled (Config.Obs.MetricsInterval),
// the document also carries the full time series.
func (r Results) WriteJSON(w io.Writer) error {
	doc := jsonResults{
		Schema:    ResultsSchemaVersion,
		NowUS:     r.Now.Microseconds(),
		ExeTimeUS: r.ExeTime.Microseconds(),
		Aborted:   r.Aborted != nil,
		Metrics:   make([]jsonMetric, 0, len(r.Metrics)),
	}
	for _, m := range r.Metrics {
		doc.Metrics = append(doc.Metrics, jsonMetric{Name: m.Name, Kind: m.Kind.String(), Value: m.Value})
	}
	if s := r.MetricSeries; s != nil && s.Len() > 0 {
		js := &jsonSeries{Names: s.Names()}
		for i := 0; i < s.Len(); i++ {
			tUS, row := s.Row(i)
			js.TimeUS = append(js.TimeUS, tUS)
			js.Rows = append(js.Rows, row)
		}
		doc.Series = js
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TotalProcessed sums processed packets across cores.
func (r Results) TotalProcessed() uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.Processed
	}
	return n
}

// P99Across returns the worst per-core p99 (the paper reports
// per-application p99; with symmetric NFs the max is representative).
func (r Results) P99Across() sim.Duration {
	var worst sim.Duration
	for _, c := range r.Cores {
		if c.P99 > worst {
			worst = c.P99
		}
	}
	return worst
}

// P50Across returns the worst per-core median latency.
func (r Results) P50Across() sim.Duration {
	var worst sim.Duration
	for _, c := range r.Cores {
		if c.P50 > worst {
			worst = c.P50
		}
	}
	return worst
}

// WriteStats dumps every counter as flat key=value lines (gem5-style
// stats file), machine-greppable for post-processing.
func (r Results) WriteStats(w io.Writer) error {
	kv := []struct {
		k string
		v interface{}
	}{
		{"sim.now_us", r.Now.Microseconds()},
		{"nic.rx_packets", r.NIC.RxPackets},
		{"nic.rx_bytes", r.NIC.RxBytes},
		{"nic.rx_drops", r.NIC.RxDrops},
		{"nic.pool_drops", r.NIC.PoolDrops},
		{"nic.linkdown_drops", r.NIC.LinkDownDrops},
		{"nic.missteers", r.NIC.MisSteers},
		{"nic.invariant_violations", r.NIC.InvariantViolations},
		{"nic.tx_packets", r.NIC.TxPackets},
		{"nic.dma_writes", r.NIC.DMAWrites},
		{"nic.dma_reads", r.NIC.DMAReads},
		{"iommu.read_faults", r.IOMMUReadFaults},
		{"iommu.write_faults", r.IOMMUWriteFaults},
		{"ctrl.missteers", r.CtrlMisSteers},
		{"hier.mlc_writebacks", r.Hier.MLCWriteback},
		{"hier.mlc_writebacks_dirty", r.Hier.MLCWBDirty},
		{"hier.mlc_invalidations", r.Hier.MLCInval},
		{"hier.llc_writebacks", r.Hier.LLCWriteback},
		{"hier.llc_writebacks_io", r.Hier.LLCWBIO},
		{"hier.dir_back_invalidations", r.Hier.DirBackInval},
		{"hier.self_invalidations", r.Hier.SelfInval},
		{"hier.ddio_updates", r.Hier.DDIOUpdate},
		{"hier.ddio_allocations", r.Hier.DDIOAlloc},
		{"hier.ddio_direct_dram", r.Hier.DDIOToDRAM},
		{"hier.prefetch_fills", r.Hier.PrefetchFill},
		{"hier.prefetch_drops", r.Hier.PrefetchDrop},
		{"hier.demand_l1_hits", r.Hier.DemandL1Hit},
		{"hier.demand_mlc_hits", r.Hier.DemandMLCHit},
		{"hier.demand_llc_hits", r.Hier.DemandLLCHit},
		{"hier.demand_dram", r.Hier.DemandDRAM},
		{"dram.reads", r.DRAMReads},
		{"dram.writes", r.DRAMWrites},
		{"dram.row_hits", r.DRAMRowHits},
		{"dram.row_misses", r.DRAMRowMisses},
		{"dram.penalized_accesses", r.DRAMPenalized},
		{"exe_time_us", r.ExeTime.Microseconds()},
		{"sim.aborted", boolToInt(r.Aborted != nil)},
	}
	// Admission-control sheds appear only when the watermark actually
	// fired, keeping the historical key set for unconfigured runs.
	if r.NIC.AdmissionDrops > 0 {
		kv = append(kv, struct {
			k string
			v interface{}
		}{"nic.admission_drops", r.NIC.AdmissionDrops})
	}
	// Pool-leak visibility, following the fault-keys pattern: a healthy
	// drained run has zero outstanding pooled packets and the keys stay
	// absent (legacy outputs unchanged); a leak surfaces the full
	// accounting.
	if r.PktPool.Outstanding > 0 {
		kv = append(kv, []struct {
			k string
			v interface{}
		}{
			{"pkt_pool.gets", r.PktPool.Gets},
			{"pkt_pool.puts", r.PktPool.Puts},
			{"pkt_pool.allocs", r.PktPool.Allocs},
			{"pkt_pool.outstanding", r.PktPool.Outstanding},
			{"pkt_pool.high_water", r.PktPool.HighWater},
		}...)
	}
	if r.Faults.Total() > 0 {
		kv = append(kv, []struct {
			k string
			v interface{}
		}{
			{"fault.tlps_corrupted", r.Faults.TLPsCorrupted},
			{"fault.tlps_poisoned", r.Faults.TLPsPoisoned},
			{"fault.link_flaps", r.Faults.LinkFlaps},
			{"fault.dma_stalls", r.Faults.DMAStalls},
			{"fault.mbufs_leaked", r.Faults.MbufsLeaked},
			{"fault.dram_spikes", r.Faults.DRAMSpikes},
			{"fault.snoop_thrashes", r.Faults.SnoopThrashes},
			{"fault.dir_evictions", r.Faults.DirEvictions},
			{"fault.core_stalls", r.Faults.CoreStalls},
		}...)
		// Fabric fault keys only when a fabric was perturbed, so
		// single-host fault runs keep their historical key set.
		if r.Faults.FabricFlaps+r.Faults.FabricDegrades > 0 {
			kv = append(kv, []struct {
				k string
				v interface{}
			}{
				{"fault.fabric_flaps", r.Faults.FabricFlaps},
				{"fault.fabric_degrades", r.Faults.FabricDegrades},
			}...)
		}
		if r.Faults.TimelinePhases > 0 {
			kv = append(kv, struct {
				k string
				v interface{}
			}{"fault.timeline_phases", r.Faults.TimelinePhases})
		}
	}
	if f := r.Fabric; f != nil {
		for _, l := range f.Links {
			kv = append(kv, []struct {
				k string
				v interface{}
			}{
				{"fabric." + l.Name + ".tx_packets", l.Stats.TxPackets},
				{"fabric." + l.Name + ".delivered", l.Stats.Delivered},
				{"fabric." + l.Name + ".tail_drops", l.Stats.TailDrops},
				{"fabric." + l.Name + ".down_drops", l.Stats.DownDrops},
				{"fabric." + l.Name + ".queue_hwm", l.Stats.QueueHighWater},
			}...)
			// AQM sheds only when the controller actually dropped, so
			// tail-drop-only fabrics keep their historical key set.
			if l.Stats.AQMDrops > 0 {
				kv = append(kv, struct {
					k string
					v interface{}
				}{"fabric." + l.Name + ".aqm_drops", l.Stats.AQMDrops})
			}
			// Per-class egress breakdown, present only on scheduled (QoS)
			// links.
			for _, cc := range l.Classes {
				cp := "fabric." + l.Name + "." + cc.Class + "."
				kv = append(kv, []struct {
					k string
					v interface{}
				}{
					{cp + "tx_packets", cc.Stats.TxPackets},
					{cp + "tail_drops", cc.Stats.TailDrops},
				}...)
				if cc.Stats.AQMDrops > 0 {
					kv = append(kv, struct {
						k string
						v interface{}
					}{cp + "aqm_drops", cc.Stats.AQMDrops})
				}
			}
		}
		kv = append(kv, []struct {
			k string
			v interface{}
		}{
			{"fabric.switch.forwarded", f.Switch.Forwarded},
			{"fabric.switch.no_route", f.Switch.NoRoute},
			{"fabric.switch.parse_drops", f.Switch.ParseDrops},
		}...)
	}
	if rpc := r.RPC; rpc != nil {
		kv = append(kv, []struct {
			k string
			v interface{}
		}{
			{"rpc.issued", rpc.Issued},
			{"rpc.responses", rpc.Responses},
			{"rpc.timeouts", rpc.Timeouts},
			{"rpc.late", rpc.Late},
			{"rpc.retries", rpc.Retries},
			{"rpc.hedges", rpc.Hedges},
			{"rpc.failed", rpc.Failed},
			{"rpc.goodput_gbps", fmt.Sprintf("%.3f", rpc.GoodputBps/1e9)},
			{"rpc.p50_us", fmt.Sprintf("%.3f", rpc.P50.Microseconds())},
			{"rpc.p99_us", fmt.Sprintf("%.3f", rpc.P99.Microseconds())},
			{"rpc.p999_us", fmt.Sprintf("%.3f", rpc.P999.Microseconds())},
		}...)
		// Per-service-class SLO accounting, present only under a QoS
		// policy.
		for _, c := range rpc.Classes {
			cp := "rpc." + c.Class + "."
			kv = append(kv, []struct {
				k string
				v interface{}
			}{
				{cp + "clients", c.Clients},
				{cp + "issued", c.Issued},
				{cp + "responses", c.Responses},
				{cp + "timeouts", c.Timeouts},
				{cp + "goodput_gbps", fmt.Sprintf("%.3f", c.GoodputBps/1e9)},
				{cp + "p50_us", fmt.Sprintf("%.3f", c.P50.Microseconds())},
				{cp + "p99_us", fmt.Sprintf("%.3f", c.P99.Microseconds())},
				{cp + "p999_us", fmt.Sprintf("%.3f", c.P999.Microseconds())},
			}...)
		}
	}
	if ch := r.Churn; ch != nil {
		kv = append(kv, []struct {
			k string
			v interface{}
		}{
			{"churn.issued", ch.Issued},
			{"churn.responses", ch.Responses},
			{"churn.timeouts", ch.Timeouts},
			{"churn.late", ch.Late},
			{"churn.arrivals", ch.Arrivals},
			{"churn.departures", ch.Departures},
			{"churn.active_flows", ch.ActiveFlows},
			{"churn.table_load", fmt.Sprintf("%.4f", ch.TableLoad)},
			{"churn.wheel_ticks", ch.WheelTicks},
			{"churn.wheel_cascades", ch.WheelCascades},
			{"churn.nic_flows_tracked", ch.NICFlowsTracked},
			{"churn.nic_flow_refusals", ch.NICFlowRefusals},
			{"churn.goodput_gbps", fmt.Sprintf("%.3f", ch.GoodputBps/1e9)},
			{"churn.p50_us", fmt.Sprintf("%.3f", ch.P50.Microseconds())},
			{"churn.p99_us", fmt.Sprintf("%.3f", ch.P99.Microseconds())},
			{"churn.p999_us", fmt.Sprintf("%.3f", ch.P999.Microseconds())},
		}...)
	}
	for _, e := range kv {
		if _, err := fmt.Fprintf(w, "%-30s %v\n", e.k, e.v); err != nil {
			return err
		}
	}
	for i, c := range r.Cores {
		if c.Processed == 0 && c.Demand.Total() == 0 {
			continue
		}
		entries := []struct {
			k string
			v string
		}{
			{fmt.Sprintf("core%d.processed", i), fmt.Sprintf("%d", c.Processed)},
			{fmt.Sprintf("core%d.p50_us", i), fmt.Sprintf("%.3f", c.P50.Microseconds())},
			{fmt.Sprintf("core%d.p99_us", i), fmt.Sprintf("%.3f", c.P99.Microseconds())},
			{fmt.Sprintf("core%d.demand_l1", i), fmt.Sprintf("%d", c.Demand.L1Hit)},
			{fmt.Sprintf("core%d.demand_mlc", i), fmt.Sprintf("%d", c.Demand.MLCHit)},
			{fmt.Sprintf("core%d.demand_llc", i), fmt.Sprintf("%d", c.Demand.LLCHit)},
			{fmt.Sprintf("core%d.demand_dram", i), fmt.Sprintf("%d", c.Demand.DRAM)},
			{fmt.Sprintf("core%d.onchip_hit_rate", i), fmt.Sprintf("%.4f", c.Demand.HitRateOnChip())},
		}
		for _, e := range entries {
			if _, err := fmt.Fprintf(w, "%-30s %s\n", e.k, e.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// String renders a human-readable summary.
func (r Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v processed=%d drops=%d (pool %d, linkdown %d)\n",
		r.Now, r.TotalProcessed(), r.NIC.RxDrops, r.NIC.PoolDrops, r.NIC.LinkDownDrops)
	if r.IOMMUReadFaults+r.IOMMUWriteFaults > 0 {
		fmt.Fprintf(&b, "  IOMMU faults: read=%d write=%d\n", r.IOMMUReadFaults, r.IOMMUWriteFaults)
	}
	if r.Faults.Total() > 0 {
		fmt.Fprintf(&b, "  faults: tlpCorrupt=%d tlpPoison=%d flaps=%d dmaStalls=%d mbufLeaks=%d dramSpikes=%d snoopThrash=%d coreStalls=%d missteers=%d\n",
			r.Faults.TLPsCorrupted, r.Faults.TLPsPoisoned, r.Faults.LinkFlaps,
			r.Faults.DMAStalls, r.Faults.MbufsLeaked, r.Faults.DRAMSpikes,
			r.Faults.SnoopThrashes, r.Faults.CoreStalls, r.CtrlMisSteers)
	}
	if r.Faults.FabricFlaps+r.Faults.FabricDegrades > 0 {
		fmt.Fprintf(&b, "  fabric faults: flaps=%d degrades=%d\n",
			r.Faults.FabricFlaps, r.Faults.FabricDegrades)
	}
	if r.Faults.TimelinePhases > 0 {
		fmt.Fprintf(&b, "  chaos timeline: phases=%d\n", r.Faults.TimelinePhases)
	}
	if r.NIC.AdmissionDrops > 0 {
		fmt.Fprintf(&b, "  admission control: sheds=%d\n", r.NIC.AdmissionDrops)
	}
	if f := r.Fabric; f != nil {
		var tail, down, aqm uint64
		for _, l := range f.Links {
			tail += l.Stats.TailDrops
			down += l.Stats.DownDrops
			aqm += l.Stats.AQMDrops
		}
		fmt.Fprintf(&b, "  fabric: forwarded=%d noroute=%d tailDrops=%d downDrops=%d\n",
			f.Switch.Forwarded, f.Switch.NoRoute, tail, down)
		if aqm > 0 {
			fmt.Fprintf(&b, "  fabric aqm: sheds=%d\n", aqm)
		}
	}
	if rpc := r.RPC; rpc != nil {
		fmt.Fprintf(&b, "  rpc: issued=%d resp=%d timeouts=%d late=%d goodput=%.2fGbps p50=%.2fus p99=%.2fus p999=%.2fus\n",
			rpc.Issued, rpc.Responses, rpc.Timeouts, rpc.Late, rpc.GoodputBps/1e9,
			rpc.P50.Microseconds(), rpc.P99.Microseconds(), rpc.P999.Microseconds())
		fmt.Fprintf(&b, "  rpc retry: retries=%d hedges=%d failed=%d\n",
			rpc.Retries, rpc.Hedges, rpc.Failed)
		for _, c := range rpc.Classes {
			fmt.Fprintf(&b, "  rpc[%s]: clients=%d issued=%d resp=%d timeouts=%d goodput=%.2fGbps p50=%.2fus p99=%.2fus p999=%.2fus\n",
				c.Class, c.Clients, c.Issued, c.Responses, c.Timeouts,
				c.GoodputBps/1e9, c.P50.Microseconds(), c.P99.Microseconds(), c.P999.Microseconds())
		}
	}
	if ch := r.Churn; ch != nil {
		fmt.Fprintf(&b, "  churn: issued=%d resp=%d timeouts=%d late=%d flows=%d (arr=%d dep=%d) goodput=%.2fGbps p99=%.2fus\n",
			ch.Issued, ch.Responses, ch.Timeouts, ch.Late, ch.ActiveFlows,
			ch.Arrivals, ch.Departures, ch.GoodputBps/1e9, ch.P99.Microseconds())
		fmt.Fprintf(&b, "  churn engine: tableLoad=%.3f wheelTicks=%d cascades=%d nicTracked=%d nicRefused=%d\n",
			ch.TableLoad, ch.WheelTicks, ch.WheelCascades, ch.NICFlowsTracked, ch.NICFlowRefusals)
	}
	if r.PktPool.Outstanding > 0 {
		fmt.Fprintf(&b, "  pkt pool: outstanding=%d (gets=%d puts=%d allocs=%d hwm=%d)\n",
			r.PktPool.Outstanding, r.PktPool.Gets, r.PktPool.Puts,
			r.PktPool.Allocs, r.PktPool.HighWater)
	}
	if r.Aborted != nil {
		fmt.Fprintf(&b, "  ABORTED: %v\n", r.Aborted)
	}
	fmt.Fprintf(&b, "  MLC WB=%d (dirty %d) inval=%d | LLC WB=%d (IO %d) | selfInval=%d\n",
		r.Hier.MLCWriteback, r.Hier.MLCWBDirty, r.Hier.MLCInval,
		r.Hier.LLCWriteback, r.Hier.LLCWBIO, r.Hier.SelfInval)
	fmt.Fprintf(&b, "  DRAM rd=%d wr=%d | DDIO alloc=%d update=%d direct=%d | prefetch fill=%d drop=%d\n",
		r.DRAMReads, r.DRAMWrites, r.Hier.DDIOAlloc, r.Hier.DDIOUpdate, r.Hier.DDIOToDRAM,
		r.Hier.PrefetchFill, r.Hier.PrefetchDrop)
	fmt.Fprintf(&b, "  exeTime=%.1fus\n", r.ExeTime.Microseconds())
	for i, c := range r.Cores {
		if c.Processed == 0 {
			continue
		}
		fmt.Fprintf(&b, "  core%d: n=%d p50=%.2fus p99=%.2fus mean=%.2fus\n",
			i, c.Processed, c.P50.Microseconds(), c.P99.Microseconds(), c.Mean.Microseconds())
	}
	return b.String()
}
