package main

// def is one reported metric: its name, unit and which direction is
// better. BENCHMARK.json lists the same names; the smoke test keeps the
// two in step.
type def struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator sees, printed by
// untraced runs. Every sim_* value is simulated time or a modelled
// count; every other value is host-side. Host time is CPU time, which
// leaves out time the hypervisor gives other guests; wall time swings
// by tens of percent with that steal on a shared host, so it is
// reported per layer, without a bound.
var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"cpu_ns_per_op", "ns", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"live_heap_mib", "MiB", "lower"},
	{"sim_p50_us", "us", "lower"},
	{"sim_p99_us", "us", "lower"},
	{"sim_mlc_wb_per_pkt", "count", "lower"},
	{"sim_dram_wr_per_pkt", "count", "lower"},
	{"sim_goodput_gbps", "Gbps", "higher"},
	{"delivered_frac", "ratio", "higher"},
}

// hostLayers are the buckets a CPU profile sample's leaf frame is
// charged to: the simulator's layers plus the Go runtime and
// everything else.
var hostLayers = []string{"sim", "nic", "pcie", "hier", "core", "cpu", "net", "flow", "pkt", "runtime", "other"}

// domains are the event domains of a two-shard cluster, in engine
// order. Unsharded runs put every event in "dut".
var domains = []string{"dut", "switch", "clients.0"}

// perLayer are the single-layer metrics, printed by traced runs. Every
// workload prints all of them; a layer a workload does not exercise
// reads 0.
var perLayer = func() []def {
	d := []def{
		{"wall_ns_per_op", "ns", "lower"},
		{"sim.events_per_op", "count", "lower"},
		{"sim.host_ns_per_event", "ns", "lower"},
		{"sim.pending_peak", "count", "lower"},
		{"sim.epochs_per_op", "count", "lower"},
	}
	for _, dom := range domains {
		d = append(d, def{"sim.domain_event_share." + dom, "ratio", "lower"})
	}
	d = append(d,
		def{"sim.latency_samples", "count", "higher"},
		def{"failed_frac", "ratio", "lower"},
		def{"nic.dma_writes_per_pkt", "count", "lower"},
		def{"nic.dma_reads_per_pkt", "count", "lower"},
		def{"nic.rx_drop_frac", "ratio", "lower"},
		def{"nic.flows_tracked", "count", "lower"},
		def{"nic.flow_refusals", "count", "lower"},
		def{"hier.mlc_wb_per_pkt", "count", "lower"},
		def{"hier.llc_wb_per_pkt", "count", "lower"},
		def{"hier.mlc_inval_per_pkt", "count", "lower"},
		def{"hier.self_inval_per_pkt", "count", "lower"},
		def{"hier.ddio_alloc_per_pkt", "count", "lower"},
		def{"hier.prefetch_useful_frac", "ratio", "higher"},
		def{"hier.demand_onchip_hit_rate", "ratio", "higher"},
		def{"dram.reads_per_pkt", "count", "lower"},
		def{"dram.writes_per_pkt", "count", "lower"},
		def{"dram.row_hit_rate", "ratio", "higher"},
		def{"ctrl.steer_mlc_frac", "ratio", "higher"},
		def{"ctrl.bursts_seen", "count", "lower"},
		def{"prefetch.issued_per_pkt", "count", "lower"},
		def{"prefetch.hints_dropped_frac", "ratio", "lower"},
		def{"prefetch.throttled_frac", "ratio", "lower"},
		def{"cpu.busy_frac", "ratio", "lower"},
		def{"cpu.app_host_ns_per_pkt", "ns", "lower"},
		def{"net.switch_forwarded_per_req", "count", "lower"},
		def{"net.link_queue_hwm_max", "count", "lower"},
		def{"net.link_drops", "count", "lower"},
		def{"net.link_busy_frac", "ratio", "lower"},
		def{"net.client_timeout_frac", "ratio", "lower"},
		def{"net.client_retries_per_req", "count", "lower"},
		def{"flow.table_load", "ratio", "lower"},
		def{"flow.wheel_ticks_per_req", "count", "lower"},
		def{"flow.wheel_cascades_per_req", "count", "lower"},
		def{"churn.late_frac", "ratio", "lower"},
		def{"pkt.pool_allocs_per_op", "count", "lower"},
		def{"pkt.pool_high_water", "count", "lower"},
	)
	for _, l := range hostLayers {
		d = append(d, def{l + ".host_self_frac", "ratio", "lower"})
	}
	return append(d, def{"trace.overhead_frac", "ratio", "lower"})
}()
