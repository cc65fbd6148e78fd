package idio

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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
	// Retries/Failed mirror net.ClientStats: backoff retransmissions
	// and requests abandoned after the retry budget. Once drained,
	// Issued == Responses + Failed.
	Retries uint64
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
// clients ran.
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

	// CtrlMisSteers counts TLPs whose decoded metadata named a
	// non-existent destination core (corrupted in flight); the
	// controller degraded them to the LLC default instead of crashing.
	CtrlMisSteers uint64

	// Faults snapshots the fault injectors' perturbation counts; the
	// zero value means no fault layer was configured.
	Faults fault.Stats

	// PktPool snapshots the host packet pool's recycling counters.
	// After a drained run Outstanding must be zero — a non-zero value
	// means pooled packets leaked (a lifecycle bug), and String
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

	// Timelines the rate figures plot (Fig. 5/9/13; nil when
	// Hier.TimelineBucket is 0): MLC writebacks, LLC writebacks, DMA
	// requests.
	MLCWBTL *stats.Timeline
	LLCWBTL *stats.Timeline
	DMATL   *stats.Timeline

	// Metrics is the observability registry's snapshot at Collect time,
	// in registration order. WriteStats and WriteJSON both render this
	// view.
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
		DMATL:         s.Hier.DMAReqTL,
	}
	if s.Faults != nil {
		r.Faults = s.Faults.Stats()
	}
	r.PktPool = s.PktPool.Stats()
	r.Aborted = s.watchdogErr()
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
	}
	r.ExeTime = s.exeTime()
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

// perClientMetric reports whether name belongs to a per-client series,
// rpc.c<N>.* or churn.c<N>.* (not the rpc.cs1.* class aggregate).
func perClientMetric(name string) bool {
	family, rest, _ := strings.Cut(name, ".")
	id, _, ok := strings.Cut(rest, ".")
	return ok && (family == "rpc" || family == "churn") &&
		len(id) > 1 && id[0] == 'c' && strings.Trim(id[1:], "0123456789") == ""
}

// WriteStats dumps the registry snapshot (Metrics) as flat "key value"
// lines in registration order — a gem5-style stats file,
// machine-greppable for post-processing. Counters print as integers,
// gauges as their shortest exact decimal. The per-client rpc.c<N>.* /
// churn.c<N>.* series stay JSON-only, so the dump's length does not
// grow with the client count.
func (r Results) WriteStats(w io.Writer) error {
	for _, m := range r.Metrics {
		if perClientMetric(m.Name) {
			continue
		}
		v := strconv.FormatFloat(m.Value, 'f', -1, 64)
		if m.Kind == obs.KindCounter {
			v = strconv.FormatUint(m.Uint64(), 10)
		}
		if _, err := fmt.Fprintf(w, "%-30s %s\n", m.Name, v); err != nil {
			return err
		}
	}
	return nil
}

// String renders a human-readable summary.
func (r Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v processed=%d drops=%d (pool %d, linkdown %d)\n",
		r.Now, r.TotalProcessed(), r.NIC.RxDrops, r.NIC.PoolDrops, r.NIC.LinkDownDrops)
	if r.Faults.Total() > 0 {
		fmt.Fprintf(&b, "  faults: tlpCorrupt=%d tlpPoison=%d dmaStalls=%d dramSpikes=%d coreStalls=%d missteers=%d\n",
			r.Faults.TLPsCorrupted, r.Faults.TLPsPoisoned, r.Faults.DMAStalls,
			r.Faults.DRAMSpikes, r.Faults.CoreStalls, r.CtrlMisSteers)
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
		fmt.Fprintf(&b, "  rpc retry: retries=%d failed=%d\n", rpc.Retries, rpc.Failed)
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
