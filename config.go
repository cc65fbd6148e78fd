// Package idio is a full-system simulation library reproducing "IDIO:
// Network-Driven, Inbound Network Data Orchestration on Server
// Processors" (MICRO 2022). It wires together a non-inclusive cache
// hierarchy with DDIO ways, a NIC model with Flow Director and a
// bandwidth-paced DMA engine, a DPDK-style polling software stack, and
// the IDIO classifier/controller/prefetcher, and exposes the paper's
// named policies (DDIO, Invalidate, Prefetch, Static, IDIO).
//
// Quick start:
//
//	cfg := idio.DefaultConfig(2)
//	cfg.Policy = idiocore.PolicyIDIO
//	sys := idio.NewSystem(cfg)
//	flow := sys.DefaultFlow(0)
//	sys.AddNF(0, apps.TouchDrop{}, flow)
//	traffic.Bursty{...}.Install(sys.Sim, sys.NIC)
//	res := sys.Run(30 * sim.Millisecond)
package idio

import (
	"errors"
	"fmt"

	idiocore "idio/internal/core"
	"idio/internal/cpu"
	"idio/internal/fault"
	"idio/internal/hier"
	fnet "idio/internal/net"
	"idio/internal/nic"
	"idio/internal/obs"
	"idio/internal/qos"
	"idio/internal/sim"
)

// Config aggregates every subsystem's configuration. DefaultConfig
// reproduces Table I; experiments override individual fields.
type Config struct {
	Hier       hier.Config
	NIC        nic.Config
	CPU        cpu.Config
	Classifier idiocore.ClassifierConfig
	Controller idiocore.ControllerConfig
	Prefetcher idiocore.PrefetcherConfig
	// Policy selects the active IDIO mechanisms (the evaluation's
	// DDIO / Invalidate / Prefetch / Static / IDIO configurations).
	Policy idiocore.Policy
	// DynamicDDIOWays, when non-nil, enables the IAT-style dynamic
	// DDIO-way baseline: the way allocation is tuned at runtime from
	// the observed DMA-leak rate. Typically combined with PolicyDDIO
	// to model prior work the paper compares against (Shortcoming S1).
	DynamicDDIOWays *idiocore.WayTunerConfig
	// Faults, when non-nil and enabled, wires the deterministic
	// fault-injection layer (internal/fault) through the PCIe path and
	// attaches its periodic injectors and timeline phases to the NIC,
	// DRAM and cores (and, on a Cluster's DUT, the fabric links). Same
	// seed + same config = bit-identical runs, faults included.
	Faults *fault.Config
	// Watchdog, when non-nil, arms the simulator's no-progress /
	// event-storm detector with these thresholds (nil leaves the
	// watchdog disabled, matching historical behaviour). A tripped
	// watchdog stops the run and surfaces a *sim.WatchdogError via
	// System.Err and Results.Aborted.
	Watchdog *sim.WatchdogConfig
	// QoS, when non-nil, arms service-class-aware orchestration on the
	// host: the DSCP→class map is installed in the NIC's filter table,
	// each class's LLC way quota / prefetch aggressiveness /
	// direct-to-DRAM policy applies at DMA placement time, and
	// per-class RX counters appear in the obs registry. On a Cluster's
	// DUT it also arms the fabric: every switch egress port replaces its
	// single FIFO with per-class queues under a strict-priority +
	// weighted-round-robin scheduler, and Collect reports per-class RPC
	// latency, goodput and drop breakdowns. Nil (the default) leaves
	// every packet class 0 and the data plane byte-identical to pre-QoS
	// builds.
	QoS *qos.Config
	// Obs configures the observability layer: Obs.TraceSampleN > 0
	// enables the structured packet-journey tracer (attach a sink via
	// System.Observe().SetSink), Obs.MetricsInterval > 0 enables
	// periodic metric-registry snapshots. The zero value costs zero
	// work and zero allocations on the simulation's hot paths; the
	// metric registry itself is always populated.
	Obs obs.Config
}

// DefaultConfig builds the Table I system for the given core count:
// 3 GHz cores, 32KB L1D, 1MB 8-way MLC (12 CC), 1.5MB x 12-way LLC per
// core (24 CC) with 2 DDIO ways, DDR4-3200, a 2x100GbE NIC with
// 1024-entry rings, DPDK-style 32-packet bursts, and the Sec. VI
// thresholds (rxBurstTHR = 10 Gbps over 1 µs, mlcTHR = 50 MTPS).
func DefaultConfig(numCores int) Config {
	return Config{
		Hier:       hier.DefaultConfig(numCores),
		NIC:        nic.DefaultConfig(numCores),
		CPU:        cpu.DefaultConfig(),
		Classifier: idiocore.DefaultClassifierConfig(numCores),
		Controller: idiocore.DefaultControllerConfig(numCores),
		Prefetcher: idiocore.DefaultPrefetcherConfig(),
		Policy:     idiocore.PolicyDDIO,
	}
}

// Gem5Config mirrors the scaled-down gem5 setup used for the paper's
// fine-grained burst analyses (Sec. III, Fig. 5): the LLC is scaled to
// 3 MB total and two NF instances run on two cores.
func Gem5Config() Config {
	cfg := DefaultConfig(2)
	cfg.Hier.LLCSize = 3 << 20
	return cfg
}

// ClusterConfig describes a multi-host topology: one DUT server (a
// full System) plus N client host slots, connected through a switch by
// point-to-point links (see Cluster).
type ClusterConfig struct {
	// Host configures the DUT server.
	Host Config
	// Clients is the number of client host slots.
	Clients int
	// ClientLink is the per-client link template (Name is assigned per
	// slot: "c<i>.up" toward the switch, "c<i>.down" back).
	ClientLink fnet.LinkConfig
	// ServerLink is the server-side link template ("srv.down" into the
	// DUT NIC, "srv.up" for responses).
	ServerLink fnet.LinkConfig
	// Shards is accepted for compatibility and has no effect on
	// results or on how the cluster runs: every host of a cluster
	// shares one simulator (DESIGN.md "One event queue"). It must be
	// >= 0.
	Shards int
}

// DefaultClusterConfig builds a topology matching the paper's testbed
// scale: the Table I server with numCores cores, nClients clients on
// 100 GbE links with 2 µs one-way propagation delay.
func DefaultClusterConfig(numCores, nClients int) ClusterConfig {
	link := fnet.LinkConfig{
		RateBps: 100e9,
		Delay:   2 * sim.Microsecond,
	}
	return ClusterConfig{
		Host:       DefaultConfig(numCores),
		Clients:    nClients,
		ClientLink: link,
		ServerLink: link,
	}
}

// Validate checks the topology parameters (the Host config is
// validated separately by NewHostE).
func (c ClusterConfig) Validate() error {
	var errs []error
	if c.Clients <= 0 {
		errs = append(errs, fmt.Errorf("idio: cluster needs at least one client slot, got %d", c.Clients))
	}
	if c.ClientLink.RateBps <= 0 {
		errs = append(errs, fmt.Errorf("idio: cluster client-link rate %d must be positive", c.ClientLink.RateBps))
	}
	if c.ServerLink.RateBps <= 0 {
		errs = append(errs, fmt.Errorf("idio: cluster server-link rate %d must be positive", c.ServerLink.RateBps))
	}
	if c.ClientLink.Delay < 0 || c.ServerLink.Delay < 0 {
		errs = append(errs, fmt.Errorf("idio: cluster link delays must be >= 0 (client %gus, server %gus)",
			c.ClientLink.Delay.Microseconds(), c.ServerLink.Delay.Microseconds()))
	}
	if c.Shards < 0 {
		errs = append(errs, fmt.Errorf("idio: cluster shards %d must be >= 0", c.Shards))
	}
	return errors.Join(errs...)
}

// NumCores returns the configured core count.
func (c Config) NumCores() int { return c.Hier.NumCores }

// TimelineBucket returns the stats sampling interval in use.
func (c Config) TimelineBucket() sim.Duration { return c.Hier.TimelineBucket }
