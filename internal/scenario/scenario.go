// Package scenario builds every simulation run. Desc describes one run
// (host, optional fabric, NFs and traffic, clients, antagonist,
// horizon) and Build wires it; the experiments write their Descs
// directly.
//
// The package also loads declarative scenarios from JSON, so users can
// describe custom systems and workloads without writing Go, and
// Scenario.Compile turns a document into its Desc. The schema covers
// the knobs the paper's evaluation varies: policy, cache geometry,
// ring size, thresholds, workloads per core, traffic shapes, and the
// optional LLC antagonist.
//
// Example:
//
//	{
//	  "name": "two-touchdrop-idio",
//	  "policy": "IDIO",
//	  "cores": 2,
//	  "ringSize": 1024,
//	  "horizonMS": 9,
//	  "nfs": [
//	    {"core": 0, "app": "TouchDrop", "frameLen": 1514,
//	     "traffic": {"kind": "bursty", "gbps": 25, "packetsPerBurst": 1024, "numBursts": 1}},
//	    {"core": 1, "app": "L2Fwd", "frameLen": 1024,
//	     "traffic": {"kind": "steady", "gbps": 10, "count": 4096}}
//	  ]
//	}
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"idio"
	"idio/internal/apps"
	idiocore "idio/internal/core"
	"idio/internal/cpu"
	"idio/internal/fault"
	fnet "idio/internal/net"
	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/qos"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// Traffic describes one flow's arrival process.
type Traffic struct {
	// Kind is "steady" or "bursty".
	Kind string  `json:"kind"`
	Gbps float64 `json:"gbps"`
	// Count bounds a steady stream (packets).
	Count uint64 `json:"count,omitempty"`
	// PacketsPerBurst/NumBursts/PeriodMS shape a bursty stream.
	PacketsPerBurst int     `json:"packetsPerBurst,omitempty"`
	NumBursts       int     `json:"numBursts,omitempty"`
	PeriodMS        float64 `json:"periodMS,omitempty"`
}

// NF binds an application and its traffic to a core.
type NF struct {
	Core     int     `json:"core"`
	App      string  `json:"app"` // TouchDrop | L2Fwd | L2FwdQueued | L2FwdDropPayload | CopyNF | NAT | ReallocNF
	FrameLen int     `json:"frameLen,omitempty"`
	DSCP     uint8   `json:"dscp,omitempty"`
	Traffic  Traffic `json:"traffic"`
}

// Antagonist adds the LLC-thrashing co-runner.
type Antagonist struct {
	Core  int `json:"core"`
	BufKB int `json:"bufKB"`
	MLCKB int `json:"mlcKB,omitempty"`
}

// TopoLink describes one fabric link class.
type TopoLink struct {
	Gbps float64 `json:"gbps"`
	// DelayUS is the one-way propagation delay in microseconds.
	DelayUS float64 `json:"delayUS,omitempty"`
	// Queue bounds the egress queue in packets (0 = default 256).
	Queue int `json:"queue,omitempty"`
	// AQMTargetUS > 0 enables the CoDel-style queue manager on links
	// of this class (sojourn target, microseconds); AQMIntervalUS is
	// its observation interval (0 = 100us default).
	AQMTargetUS   float64 `json:"aqmTargetUS,omitempty"`
	AQMIntervalUS float64 `json:"aqmIntervalUS,omitempty"`
}

// LinkConfig converts to the fabric's link template (Name assigned
// per slot by the cluster).
func (l TopoLink) LinkConfig() fnet.LinkConfig {
	return fnet.LinkConfig{
		RateBps:     traffic.Gbps(l.Gbps),
		Delay:       us(l.DelayUS),
		QueueDepth:  l.Queue,
		AQMTarget:   us(l.AQMTargetUS),
		AQMInterval: us(l.AQMIntervalUS),
	}
}

// RPCSpec installs a closed/open-loop RPC client on every client host:
// requests travel the fabric to the DUT, each NF core echoes them
// back, and end-to-end latency is measured at the clients. Clients
// round-robin over the NF cores.
type RPCSpec struct {
	// Mode is "open", "closed", or "ramp".
	Mode string `json:"mode"`
	// Gbps is the aggregate open-loop offered load across clients
	// (open/ramp); RampToGbps is the final aggregate rate for ramp.
	Gbps       float64 `json:"gbps,omitempty"`
	RampToGbps float64 `json:"rampToGbps,omitempty"`
	// Outstanding is the per-client closed-loop window.
	Outstanding int `json:"outstanding,omitempty"`
	// Requests is the per-client request budget.
	Requests uint64 `json:"requests"`
	FrameLen int    `json:"frameLen,omitempty"`
	// TimeoutUS bounds the per-request response wait (0 = 1000).
	TimeoutUS float64 `json:"timeoutUS,omitempty"`
	// Retry enables exponential-backoff retransmission (and optional
	// hedging) on every client; omitted means MaxRetries 0: a timed-out
	// request fails and its window slot issues a new one.
	Retry *RetrySpec `json:"retry,omitempty"`
}

// RetrySpec is the JSON form of fnet.RetryConfig. Client i derives its
// jitter stream from Seed+i so concurrent clients do not phase-lock.
type RetrySpec struct {
	MaxRetries   int     `json:"maxRetries"`
	BackoffUS    float64 `json:"backoffUS,omitempty"`
	MaxBackoffUS float64 `json:"maxBackoffUS,omitempty"`
	JitterFrac   float64 `json:"jitterFrac,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	HedgeUS      float64 `json:"hedgeUS,omitempty"`
}

// config converts to the client-level retry config for client i.
func (r *RetrySpec) config(i int) *fnet.RetryConfig {
	return &fnet.RetryConfig{
		MaxRetries: r.MaxRetries,
		Backoff:    us(r.BackoffUS),
		MaxBackoff: us(r.MaxBackoffUS),
		JitterFrac: r.JitterFrac,
		Seed:       r.Seed + int64(i),
		Hedge:      us(r.HedgeUS),
	}
}

// ChurnSpec installs a flow-churn client on every client host (see
// fnet.ChurnConfig): Flows concurrent flows in aggregate — split
// evenly across clients — each issuing a Zipf-drawn request budget
// with exponential think times, departing when spent and replaced by
// a fresh flow after an exponential gap. Flow state lives in compact
// flow tables and every deadline on hashed timer wheels, so the
// population scales to a million flows. Churn flows are steered by
// RSS (no per-flow filter rules — the key space is too large), and
// the first churn client arms the NIC's per-flow statistics table.
// Mutually exclusive with the rpc section (both claim client slots).
type ChurnSpec struct {
	// Flows is the aggregate concurrent flow population; Requests the
	// aggregate wire-transmission budget. Both split evenly across the
	// topology's clients (remainders to the lowest slots).
	Flows    int    `json:"flows"`
	Requests uint64 `json:"requests"`
	// TimeoutUS bounds the per-request response wait (0 = 1000).
	TimeoutUS float64 `json:"timeoutUS,omitempty"`
	// ThinkUS is the mean think time between a flow's requests
	// (0 = 1000); ArrivalGapUS the mean departure→replacement gap
	// (0 = ThinkUS).
	ThinkUS      float64 `json:"thinkUS,omitempty"`
	ArrivalGapUS float64 `json:"arrivalGapUS,omitempty"`
	// SizeZipfS (>1, 0 = 1.2), MiceFrac (0 = 0.9), MiceMax (0 = 8) and
	// SizeMax (0 = 128) shape the per-flow budget distribution.
	SizeZipfS float64 `json:"sizeZipfS,omitempty"`
	MiceFrac  float64 `json:"miceFrac,omitempty"`
	MiceMax   uint64  `json:"miceMax,omitempty"`
	SizeMax   uint64  `json:"sizeMax,omitempty"`
	// DSCPs round-robin per-flow service classes (empty = DSCP 0).
	DSCPs []uint8 `json:"dscps,omitempty"`
	// SrcPorts/DstPorts size the per-flow port spaces (0 = 16384/1).
	SrcPorts int `json:"srcPorts,omitempty"`
	DstPorts int `json:"dstPorts,omitempty"`
	// Seed drives each client's PRNG (client i uses Seed+i).
	Seed     int64 `json:"seed,omitempty"`
	FrameLen int   `json:"frameLen,omitempty"`
	// WheelGranUS and WheelSlots shape the timer wheels (0 = 64us, and
	// a slot count derived from the longest mean deadline; at most
	// 1<<20 slots).
	WheelGranUS float64 `json:"wheelGranUS,omitempty"`
	WheelSlots  int     `json:"wheelSlots,omitempty"`
}

// config converts to the client-level churn config for client i of
// nClients (splitting the aggregate population and budget).
func (c *ChurnSpec) config(i, nClients int) fnet.ChurnConfig {
	share := func(total uint64) uint64 {
		n := total / uint64(nClients)
		if uint64(i) < total%uint64(nClients) {
			n++
		}
		return n
	}
	return fnet.ChurnConfig{
		Flows:      int(share(uint64(c.Flows))),
		Requests:   share(c.Requests),
		Timeout:    us(c.TimeoutUS),
		Think:      us(c.ThinkUS),
		ArrivalGap: us(c.ArrivalGapUS),
		SizeZipfS:  c.SizeZipfS,
		MiceFrac:   c.MiceFrac,
		MiceMax:    c.MiceMax,
		SizeMax:    c.SizeMax,
		DSCPs:      c.DSCPs,
		SrcPorts:   c.SrcPorts,
		DstPorts:   c.DstPorts,
		Seed:       c.Seed + int64(i),
		WheelGran:  us(c.WheelGranUS),
		WheelSlots: c.WheelSlots,
	}
}

// Topology switches the scenario from a single host to a multi-host
// cluster: N client hosts reach the DUT through a switch over
// point-to-point links. NF generator traffic (when present) is routed
// through the fabric — client uplink → switch → server downlink → NIC
// — instead of injected directly, and an optional RPC section drives
// request/response load measured end to end.
type Topology struct {
	Clients    int        `json:"clients"`
	ClientLink TopoLink   `json:"clientLink"`
	ServerLink TopoLink   `json:"serverLink"`
	RPC        *RPCSpec   `json:"rpc,omitempty"`
	Churn      *ChurnSpec `json:"churn,omitempty"`
}

// Scenario is the root document.
type Scenario struct {
	Name   string `json:"name"`
	Policy string `json:"policy"` // DDIO | Invalidate | Prefetch | Static | IDIO
	Cores  int    `json:"cores"`

	RingSize  int     `json:"ringSize,omitempty"`
	LLCSizeKB int     `json:"llcSizeKB,omitempty"`
	MLCSizeKB int     `json:"mlcSizeKB,omitempty"`
	DDIOWays  int     `json:"ddioWays,omitempty"`
	MLCTHR    uint64  `json:"mlcTHR,omitempty"`
	Driver    string  `json:"driver,omitempty"` // polling (default) | interrupt
	HorizonMS float64 `json:"horizonMS"`
	// ClassOneDSCPs marks application-class-1 code points.
	ClassOneDSCPs []uint8 `json:"classOneDSCPs,omitempty"`
	// TracePackets enables per-packet stage tracing, retaining up to
	// this many records per core.
	TracePackets int `json:"tracePackets,omitempty"`

	NFs        []NF        `json:"nfs"`
	Antagonist *Antagonist `json:"antagonist,omitempty"`
	Topology   *Topology   `json:"topology,omitempty"`

	// QoS arms the service-class pipeline; omit it and every link keeps
	// one FIFO egress queue and the host one DDIO way mask (see QoSSpec).
	QoS *QoSSpec `json:"qos,omitempty"`

	// Chaos schedules deterministic fault phases (fault.Phase) across
	// the run. Fabric-layer phases need a topology section: Target
	// indexes the fabric links in attach order (0 = server downlink,
	// 1 = server uplink, 2..N+1 = client uplinks, then client
	// downlinks).
	Chaos []ChaosPhase `json:"chaos,omitempty"`
	// AdmissionWatermark > 0 enables DUT admission control: packets
	// steered to an RX ring at or above this occupancy are shed.
	AdmissionWatermark int `json:"admissionWatermark,omitempty"`
}

// QoSSpec arms the service-class pipeline (internal/qos): the DSCP→
// class map in the NIC filter table, per-class placement policy (LLC
// way quota, prefetch stride, direct-to-DRAM), and — with a topology —
// the strict-priority/WRR scheduler on every switch egress port.
// Omitting the section keeps the single-class data plane, with no
// qos.* or per-class metrics.
type QoSSpec struct {
	// Classes overrides individual classes of the default policy by
	// name ("ef", "af41", "af21", "cs1"); omitted classes and omitted
	// fields keep their defaults.
	Classes []QoSClassSpec `json:"classes,omitempty"`
	// QuantumBytes is the WRR byte quantum per weight unit (0 = 2048).
	QuantumBytes int `json:"quantumBytes,omitempty"`
	// ClientDSCPs assigns request-flow DSCPs to topology RPC clients
	// round-robin, mixing service classes across client hosts. Empty
	// leaves every client at DSCP 0 (the default class).
	ClientDSCPs []uint8 `json:"clientDSCPs,omitempty"`
}

// QoSClassSpec overrides one service class's policy. Pointer fields
// distinguish "set to zero" from "keep the default".
type QoSClassSpec struct {
	Class         string  `json:"class"`
	DSCPs         []uint8 `json:"dscps,omitempty"`
	Priority      *bool   `json:"priority,omitempty"`
	Weight        *int    `json:"weight,omitempty"`
	Queue         int     `json:"queue,omitempty"`
	LLCWays       *int    `json:"llcWays,omitempty"`
	PrefetchEvery *int    `json:"prefetchEvery,omitempty"`
	DirectDRAM    *bool   `json:"directDRAM,omitempty"`
}

// qosClassIndex resolves a class name to its index.
func qosClassIndex(name string) (int, error) {
	for c := 0; c < qos.NumClasses; c++ {
		if qos.Class(c).String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown qos class %q (want ef, af41, af21, or cs1)", name)
}

// config compiles the spec into the policy table: the default
// four-class policy with the listed overrides applied.
func (q *QoSSpec) config() (*qos.Config, error) {
	cfg := qos.DefaultConfig()
	cfg.Quantum = q.QuantumBytes
	for _, cs := range q.Classes {
		ci, err := qosClassIndex(cs.Class)
		if err != nil {
			return nil, err
		}
		p := &cfg.Classes[ci]
		if cs.DSCPs != nil {
			p.DSCPs = cs.DSCPs
		}
		if cs.Priority != nil {
			p.Priority = *cs.Priority
		}
		if cs.Weight != nil {
			p.Weight = *cs.Weight
		}
		if cs.Queue > 0 {
			p.QueueDepth = cs.Queue
		}
		if cs.LLCWays != nil {
			p.LLCWays = *cs.LLCWays
		}
		if cs.PrefetchEvery != nil {
			p.PrefetchEvery = *cs.PrefetchEvery
		}
		if cs.DirectDRAM != nil {
			p.DirectDRAM = *cs.DirectDRAM
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ChaosPhase is the JSON form of one scheduled fault phase.
type ChaosPhase struct {
	Layer string `json:"layer"` // fabric | nic | dram | core
	Kind  string `json:"kind"`  // down | degrade | dma-stall | spike | stall
	// StartMS / DurationMS bound the phase in milliseconds of sim time.
	StartMS    float64 `json:"startMS"`
	DurationMS float64 `json:"durationMS"`
	// Magnitude is kind-specific: fabric/degrade rate factor in (0,1),
	// dram/spike extra latency in nanoseconds; unused otherwise.
	Magnitude float64 `json:"magnitude,omitempty"`
	// Target selects the victim by attach order (link index, NIC port,
	// or core).
	Target int `json:"target,omitempty"`
}

// chaosTimeline converts the chaos section to fault phases.
func (sc Scenario) chaosTimeline() []fault.Phase {
	if len(sc.Chaos) == 0 {
		return nil
	}
	tl := make([]fault.Phase, len(sc.Chaos))
	for i, p := range sc.Chaos {
		tl[i] = fault.Phase{
			Layer:     p.Layer,
			Kind:      p.Kind,
			Start:     sim.Time(ms(p.StartMS)),
			Duration:  ms(p.DurationMS),
			Magnitude: p.Magnitude,
			Target:    p.Target,
		}
	}
	return tl
}

// Save writes the scenario as indented JSON (the inverse of Load).
func (sc Scenario) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// Load parses and validates a scenario document.
func Load(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// Validate checks internal consistency.
func (sc Scenario) Validate() error {
	if sc.Cores <= 0 {
		return fmt.Errorf("scenario %q: cores must be positive", sc.Name)
	}
	for _, l := range sc.ranges() {
		if l.val < 0 || l.val > l.max {
			return fmt.Errorf("scenario %q: %s %s outside [0, %s]", sc.Name, l.key,
				strconv.FormatFloat(l.val, 'f', -1, 64), strconv.FormatFloat(l.max, 'f', -1, 64))
		}
	}
	if err := sc.checkFrames(); err != nil {
		return fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if _, err := sc.policy(); err != nil {
		return err
	}
	if sc.HorizonMS <= 0 {
		return fmt.Errorf("scenario %q: horizonMS must be positive", sc.Name)
	}
	if len(sc.NFs) == 0 {
		return fmt.Errorf("scenario %q: at least one NF required", sc.Name)
	}
	switch sc.Driver {
	case "", "polling", "interrupt":
	default:
		return fmt.Errorf("scenario %q: unknown driver %q", sc.Name, sc.Driver)
	}
	seen := map[int]bool{}
	for i, nf := range sc.NFs {
		if nf.Core < 0 || nf.Core >= sc.Cores {
			return fmt.Errorf("scenario %q: nf %d core %d out of range", sc.Name, i, nf.Core)
		}
		if seen[nf.Core] {
			return fmt.Errorf("scenario %q: core %d has two NFs", sc.Name, nf.Core)
		}
		seen[nf.Core] = true
		if _, err := appFor(nf.App, nil); err != nil {
			return fmt.Errorf("scenario %q: nf %d: %w", sc.Name, i, err)
		}
		switch nf.Traffic.Kind {
		case "steady":
			if nf.Traffic.Count == 0 {
				return fmt.Errorf("scenario %q: nf %d steady traffic needs count", sc.Name, i)
			}
		case "bursty":
			if nf.Traffic.PacketsPerBurst <= 0 || nf.Traffic.NumBursts <= 0 {
				return fmt.Errorf("scenario %q: nf %d bursty traffic needs packetsPerBurst and numBursts", sc.Name, i)
			}
		case "":
			// An NF may omit generator traffic only when topology RPC or
			// churn clients drive it instead.
			if sc.Topology == nil || (sc.Topology.RPC == nil && sc.Topology.Churn == nil) {
				return fmt.Errorf("scenario %q: nf %d needs traffic (or a topology rpc/churn section)", sc.Name, i)
			}
		default:
			return fmt.Errorf("scenario %q: nf %d unknown traffic kind %q", sc.Name, i, nf.Traffic.Kind)
		}
		if nf.Traffic.Kind != "" && nf.Traffic.Gbps <= 0 {
			return fmt.Errorf("scenario %q: nf %d needs a positive rate", sc.Name, i)
		}
	}
	if t := sc.Topology; t != nil {
		if t.Clients <= 0 {
			return fmt.Errorf("scenario %q: topology needs at least one client", sc.Name)
		}
		if t.ClientLink.Gbps <= 0 || t.ServerLink.Gbps <= 0 {
			return fmt.Errorf("scenario %q: topology links need positive gbps", sc.Name)
		}
		if rpc := t.RPC; rpc != nil {
			if rpc.Requests == 0 {
				return fmt.Errorf("scenario %q: topology rpc needs requests", sc.Name)
			}
			switch rpc.Mode {
			case "open":
				if rpc.Gbps <= 0 {
					return fmt.Errorf("scenario %q: open-loop rpc needs gbps", sc.Name)
				}
			case "closed":
				if rpc.Outstanding <= 0 {
					return fmt.Errorf("scenario %q: closed-loop rpc needs outstanding", sc.Name)
				}
			case "ramp":
				if rpc.Gbps <= 0 || rpc.RampToGbps <= 0 {
					return fmt.Errorf("scenario %q: ramp rpc needs gbps and rampToGbps", sc.Name)
				}
			default:
				return fmt.Errorf("scenario %q: unknown rpc mode %q", sc.Name, rpc.Mode)
			}
			if rpc.Retry != nil {
				if err := rpc.Retry.config(0).Validate(); err != nil {
					return fmt.Errorf("scenario %q: rpc retry: %w", sc.Name, err)
				}
			}
		}
		if ch := t.Churn; ch != nil {
			if t.RPC != nil {
				return fmt.Errorf("scenario %q: topology rpc and churn sections are mutually exclusive", sc.Name)
			}
			if ch.Flows < t.Clients {
				return fmt.Errorf("scenario %q: topology churn needs flows >= clients (%d < %d)", sc.Name, ch.Flows, t.Clients)
			}
			if ch.Requests == 0 {
				return fmt.Errorf("scenario %q: topology churn needs requests", sc.Name)
			}
			cc := ch.config(0, t.Clients)
			if err := cc.Validate(); err != nil {
				return fmt.Errorf("scenario %q: churn: %w", sc.Name, err)
			}
		}
		if t.ClientLink.AQMTargetUS < 0 || t.ServerLink.AQMTargetUS < 0 ||
			t.ClientLink.AQMIntervalUS < 0 || t.ServerLink.AQMIntervalUS < 0 {
			return fmt.Errorf("scenario %q: link AQM target/interval must be >= 0", sc.Name)
		}
	}
	if sc.AdmissionWatermark < 0 {
		return fmt.Errorf("scenario %q: admissionWatermark must be >= 0, got %d", sc.Name, sc.AdmissionWatermark)
	}
	if sc.QoS != nil {
		if _, err := sc.QoS.config(); err != nil {
			return fmt.Errorf("scenario %q: qos: %w", sc.Name, err)
		}
		if len(sc.QoS.ClientDSCPs) > 0 && (sc.Topology == nil || sc.Topology.RPC == nil) {
			return fmt.Errorf("scenario %q: qos clientDSCPs need a topology rpc section", sc.Name)
		}
	}
	if len(sc.Chaos) > 0 {
		// Delegate phase-shape checks (unknown layer/kind, negative
		// start, non-positive duration, overlapping same-target phases,
		// magnitude ranges) to the fault layer, which owns the rules.
		fc := fault.Config{Timeline: sc.chaosTimeline()}
		if err := fc.Validate(); err != nil {
			return fmt.Errorf("scenario %q: chaos: %w", sc.Name, err)
		}
		for i, p := range sc.Chaos {
			if p.Layer == "fabric" && sc.Topology == nil {
				return fmt.Errorf("scenario %q: chaos[%d] targets the fabric but no topology is declared", sc.Name, i)
			}
			if p.Layer == "core" && p.Target >= sc.Cores {
				return fmt.Errorf("scenario %q: chaos[%d] core target %d out of range", sc.Name, i, p.Target)
			}
		}
	}
	if sc.Antagonist != nil {
		if sc.Antagonist.Core < 0 || sc.Antagonist.Core >= sc.Cores {
			return fmt.Errorf("scenario %q: antagonist core out of range", sc.Name)
		}
		if seen[sc.Antagonist.Core] {
			return fmt.Errorf("scenario %q: antagonist shares core %d with an NF", sc.Name, sc.Antagonist.Core)
		}
		if sc.Antagonist.BufKB <= 0 {
			return fmt.Errorf("scenario %q: antagonist needs bufKB", sc.Name)
		}
	}
	return nil
}

// maxFrameLen is the largest frame a scenario may ask for: a 9216 B
// jumbo frame.
const maxFrameLen = 9216

// checkFrames rejects a set (non-zero) frame length outside [pkt.HeadersLen,
// maxFrameLen] and a DSCP above 63 (the field has 6 bits).
func (sc Scenario) checkFrames() error {
	lens := []int{}
	dscps := []uint8{}
	for _, nf := range sc.NFs {
		lens, dscps = append(lens, nf.FrameLen), append(dscps, nf.DSCP)
	}
	if t := sc.Topology; t != nil && t.RPC != nil {
		lens = append(lens, t.RPC.FrameLen)
	}
	if t := sc.Topology; t != nil && t.Churn != nil {
		lens, dscps = append(lens, t.Churn.FrameLen), append(dscps, t.Churn.DSCPs...)
	}
	if sc.QoS != nil {
		dscps = append(dscps, sc.QoS.ClientDSCPs...)
	}
	for _, n := range lens {
		if n != 0 && (n < pkt.HeadersLen || n > maxFrameLen) {
			return fmt.Errorf("frameLen %d outside [%d,%d]", n, pkt.HeadersLen, maxFrameLen)
		}
	}
	for _, d := range dscps {
		if d > 63 {
			return fmt.Errorf("dscp %d exceeds 63", d)
		}
	}
	return nil
}

// knobRange is one numeric knob's value and its supported maximum.
type knobRange struct {
	key      string
	val, max float64
}

// ranges bounds the numeric knobs to [0, max]. A zero selects the
// default, so a negative value is a typo, not a request. The maxima
// bound the knobs whose memory or set-up work is paid up front, before
// the watchdog sees an event: they lie far above any real device, and
// turn a typo into an error instead of an out-of-memory kill.
func (sc Scenario) ranges() []knobRange {
	ls := []knobRange{
		{"ringSize", float64(sc.RingSize), 1 << 15},
		{"llcSizeKB", float64(sc.LLCSizeKB), 1 << 18},
		{"mlcSizeKB", float64(sc.MLCSizeKB), 1 << 14},
		{"ddioWays", float64(sc.DDIOWays), 64},
		{"tracePackets", float64(sc.TracePackets), 1 << 16},
	}
	if a := sc.Antagonist; a != nil {
		ls = append(ls, knobRange{"antagonist bufKB", float64(a.BufKB), 1 << 18}, knobRange{"antagonist mlcKB", float64(a.MLCKB), 1 << 14})
	}
	if t := sc.Topology; t != nil {
		ls = append(ls, knobRange{"topology clients", float64(t.Clients), 256},
			knobRange{"clientLink queue", float64(t.ClientLink.Queue), 4096}, knobRange{"serverLink queue", float64(t.ServerLink.Queue), 4096},
			knobRange{"clientLink delayUS", t.ClientLink.DelayUS, 1e6}, knobRange{"serverLink delayUS", t.ServerLink.DelayUS, 1e6})
		if t.RPC != nil {
			ls = append(ls, knobRange{"rpc outstanding", float64(t.RPC.Outstanding), 4096}, knobRange{"rpc timeoutUS", t.RPC.TimeoutUS, 1e7})
		}
		if t.Churn != nil {
			ls = append(ls, knobRange{"churn flows", float64(t.Churn.Flows), 1 << 21})
		}
	}
	if q := sc.QoS; q != nil {
		for _, c := range q.Classes {
			ls = append(ls, knobRange{"qos class queue", float64(c.Queue), 4096})
		}
	}
	return ls
}

func (sc Scenario) policy() (idiocore.Policy, error) {
	switch sc.Policy {
	case "DDIO", "":
		return idiocore.PolicyDDIO, nil
	case "Invalidate":
		return idiocore.PolicyInvalidate, nil
	case "Prefetch":
		return idiocore.PolicyPrefetch, nil
	case "Static":
		return idiocore.PolicyStatic, nil
	case "IDIO":
		return idiocore.PolicyIDIO, nil
	default:
		return idiocore.Policy{}, fmt.Errorf("scenario %q: unknown policy %q", sc.Name, sc.Policy)
	}
}

func appFor(name string, sys *idio.System) (cpu.App, error) {
	switch name {
	case "TouchDrop":
		return apps.TouchDrop{}, nil
	case "L2Fwd":
		return apps.L2Fwd{}, nil
	case "L2FwdQueued":
		return &apps.L2FwdQueued{}, nil
	case "L2FwdDropPayload":
		return apps.L2FwdDropPayload{}, nil
	case "CopyNF":
		if sys == nil {
			return &apps.CopyNF{}, nil // validation pass
		}
		return &apps.CopyNF{Dst: sys.AllocRegion(1 << 20)}, nil
	case "NAT":
		if sys == nil {
			return &apps.NAT{}, nil // validation pass
		}
		return &apps.NAT{Table: sys.AllocRegion(4 << 20)}, nil
	case "ReallocNF":
		return &apps.ReallocNF{}, nil
	default:
		return nil, fmt.Errorf("unknown app %q", name)
	}
}

// RunOpts carries run-time observability options that are deliberately
// not part of the scenario document: the same scenario file can be run
// untraced (production figures) or traced (debugging) without edits.
type RunOpts struct {
	// TraceSampleN > 0 enables the packet-journey tracer, following
	// every Nth packet (1 = all).
	TraceSampleN int
	// TraceSink receives trace events when tracing is enabled; nil
	// leaves the counting NullSink. The caller owns closing it.
	TraceSink obs.Sink
	// MetricsInterval > 0 records a metric-registry snapshot at this
	// period (see Results.MetricSeries).
	MetricsInterval sim.Duration
}

// Run builds, executes, and summarises the scenario. It returns the
// run results and the antagonist's CPI (zero when not configured).
func Run(sc Scenario) (idio.Results, float64, error) {
	_, res, cpi, err := RunSystem(sc)
	return res, cpi, err
}

// RunSystem is Run but additionally returns the live system so callers
// can inspect post-run state (per-packet traces, cache occupancies).
func RunSystem(sc Scenario) (*idio.System, idio.Results, float64, error) {
	return RunSystemOpts(sc, RunOpts{})
}

// RunSystemOpts is RunSystem with observability options layered on
// top of the scenario document.
func RunSystemOpts(sc Scenario, opts RunOpts) (*idio.System, idio.Results, float64, error) {
	d, err := sc.Compile()
	if err != nil {
		return nil, idio.Results{}, 0, err
	}
	d.Host.Obs.TraceSampleN = opts.TraceSampleN
	d.Host.Obs.MetricsInterval = opts.MetricsInterval
	r, err := Build(d)
	if err != nil {
		return nil, idio.Results{}, 0, err
	}
	r.Sys.Observe().SetSink(opts.TraceSink)
	res := r.Run()
	cpi := 0.0
	if r.Antagonist != nil {
		cpi = r.Antagonist.CPI()
	}
	return r.Sys, res, cpi, nil
}

// us and ms convert the document's microsecond and millisecond knobs.
func us(v float64) sim.Duration { return sim.Duration(v * float64(sim.Microsecond)) }
func ms(v float64) sim.Duration { return sim.Duration(v * float64(sim.Millisecond)) }

// hostConfig maps the document's host knobs onto the default
// configuration: the DUT's, when the scenario has a topology.
func (sc Scenario) hostConfig() (idio.Config, error) {
	pol, err := sc.policy()
	if err != nil {
		return idio.Config{}, err
	}
	cfg := idio.DefaultConfig(sc.Cores)
	cfg.Policy = pol
	if sc.RingSize > 0 {
		cfg.NIC.RingSize = sc.RingSize
	}
	if sc.LLCSizeKB > 0 {
		cfg.Hier.LLCSize = sc.LLCSizeKB << 10
	}
	if sc.MLCSizeKB > 0 {
		cfg.Hier.MLCSize = sc.MLCSizeKB << 10
	}
	if sc.DDIOWays > 0 {
		cfg.Hier.DDIOWays = sc.DDIOWays
	}
	if sc.MLCTHR > 0 {
		cfg.Controller.MLCTHR = sc.MLCTHR
	}
	if len(sc.ClassOneDSCPs) > 0 {
		cfg.Classifier.ClassOneDSCPs = sc.ClassOneDSCPs
	}
	if sc.Driver == "interrupt" {
		cfg.CPU.Driver = cpu.DriverInterrupt
	}
	if sc.TracePackets > 0 {
		cfg.CPU.TraceCapacity = sc.TracePackets
	}
	if sc.AdmissionWatermark > 0 {
		cfg.NIC.AdmissionWatermark = sc.AdmissionWatermark
	}
	if tl := sc.chaosTimeline(); tl != nil {
		cfg.Faults = &fault.Config{Timeline: tl}
	}
	if sc.QoS != nil {
		// The placement-side policy (filter table, way quotas, prefetch
		// strides) applies to any host; a topology also schedules the
		// fabric by it.
		if cfg.QoS, err = sc.QoS.config(); err != nil {
			return idio.Config{}, err
		}
	}
	return cfg, nil
}

// Compile turns the document into its run description: the host
// configuration, the NFs and their generators, one client per
// topology slot, the antagonist and the horizon. It is the one place
// where the document's units and defaults become the simulator's.
func (sc Scenario) Compile() (Desc, error) {
	cfg, err := sc.hostConfig()
	if err != nil {
		return Desc{}, err
	}
	d := Desc{Host: cfg, Antagonist: sc.Antagonist, Horizon: ms(sc.HorizonMS), UntilIdle: true}
	var nfCores []int
	for _, nf := range sc.NFs {
		n := NFDesc{Core: nf.Core, App: nf.App, FrameLen: nf.FrameLen, DSCP: nf.DSCP}
		switch t := nf.Traffic; t.Kind {
		case "steady":
			n.Steady = &traffic.Steady{RateBps: traffic.Gbps(t.Gbps), Count: t.Count}
		case "bursty":
			period := t.PeriodMS
			if period == 0 {
				period = 10
			}
			n.Bursty = &traffic.Bursty{BurstRateBps: traffic.Gbps(t.Gbps), Period: ms(period),
				PacketsPerBurst: t.PacketsPerBurst, NumBursts: t.NumBursts}
		}
		d.NFs = append(d.NFs, n)
		nfCores = append(nfCores, nf.Core)
	}
	topo := sc.Topology
	if topo == nil {
		return d, nil
	}
	d.Fabric = &Fabric{Clients: topo.Clients, ClientLink: topo.ClientLink.LinkConfig(), ServerLink: topo.ServerLink.LinkConfig()}
	if rpc := topo.RPC; rpc != nil {
		// Clients round-robin over the NF cores; aggregate open-loop
		// rates split evenly across them, and the qos section's
		// clientDSCPs round-robin over them.
		mode, ok := map[string]fnet.Mode{"open": fnet.ModeOpen, "closed": fnet.ModeClosed, "ramp": fnet.ModeRamp}[rpc.Mode]
		if !ok {
			return Desc{}, fmt.Errorf("scenario: unknown rpc mode %q", rpc.Mode)
		}
		for i := 0; i < topo.Clients; i++ {
			cc := fnet.ClientConfig{
				Mode:        mode,
				RateBps:     traffic.Gbps(rpc.Gbps) / int64(topo.Clients),
				RampToBps:   traffic.Gbps(rpc.RampToGbps) / int64(topo.Clients),
				Outstanding: rpc.Outstanding,
				Requests:    rpc.Requests,
				Timeout:     us(rpc.TimeoutUS),
				Flow:        traffic.Flow{FrameLen: rpc.FrameLen},
			}
			if rpc.Retry != nil {
				cc.Retry = rpc.Retry.config(i)
			}
			if q := sc.QoS; q != nil && len(q.ClientDSCPs) > 0 {
				cc.Flow.DSCP = q.ClientDSCPs[i%len(q.ClientDSCPs)]
			}
			d.RPC = append(d.RPC, RPCClient{Core: nfCores[i%len(nfCores)], ClientConfig: cc})
		}
	}
	for i := 0; topo.Churn != nil && i < topo.Clients; i++ {
		cc := topo.Churn.config(i, topo.Clients)
		cc.Flow.FrameLen = topo.Churn.FrameLen
		d.Churn = append(d.Churn, cc)
	}
	return d, nil
}

// Desc describes one run: the host, the optional fabric around it, and
// the load on both. Scenario.Compile produces one from a JSON
// document; experiments write theirs directly. Build wires it.
type Desc struct {
	// Host configures the DUT. Its QoS, when set, also schedules the
	// fabric's switch egress ports.
	Host idio.Config
	// Fabric, when non-nil, puts the host behind a switch with client
	// hosts; nil runs a bare host.
	Fabric *Fabric
	// NFs bind apps and their generator traffic to DUT cores. With a
	// fabric, NF i's generator feeds client slot i mod Clients's
	// uplink instead of the NIC.
	NFs []NFDesc
	// RPC and Churn hold one client per slot: element i runs on client
	// slot i. A run uses one kind or the other.
	RPC   []RPCClient
	Churn []fnet.ChurnConfig
	// Antagonist, when non-nil, runs the LLC antagonist on its core; a
	// positive MLCKB sizes that core's MLC.
	Antagonist *Antagonist
	// Horizon bounds the run; UntilIdle ends it at the first 100 µs
	// checkpoint where rings, links and clients have all drained.
	Horizon   sim.Duration
	UntilIdle bool
}

// Fabric is the cluster around the host (see idio.ClusterConfig).
type Fabric struct {
	Clients    int
	ClientLink fnet.LinkConfig
	ServerLink fnet.LinkConfig
}

// NFDesc binds an app, named as in the document, to a core. Its flow
// is the core's default flow with FrameLen (0 = MTU) and DSCP applied.
// Steady or Bursty, when non-nil, is its generator; Build installs a
// copy carrying the flow.
type NFDesc struct {
	Core     int
	App      string
	FrameLen int
	DSCP     uint8
	Steady   *traffic.Steady
	Bursty   *traffic.Bursty
}

// RPCClient is one slot's RPC client, served by the NF on Core. Build
// gives it the slot's canonical flow (idio.Cluster.ClientFlow),
// keeping Flow's FrameLen (0 = MTU) and DSCP; churn clients' flows are
// built the same way, on core 0.
type RPCClient struct {
	Core int
	fnet.ClientConfig
}

// Rig is a built run that has not started: a caller may schedule its
// own events or register metrics on it before Run.
type Rig struct {
	// Sys is the DUT; Cluster is nil for a bare host.
	Sys        *idio.System
	Cluster    *idio.Cluster
	Antagonist *apps.LLCAntagonist

	horizon   sim.Duration
	untilIdle bool
}

// Build wires d: the host or cluster, the NFs and their generators, the
// clients and the antagonist.
func Build(d Desc) (*Rig, error) {
	if len(d.RPC) > 0 && len(d.Churn) > 0 {
		return nil, errors.New("scenario: rpc and churn clients are mutually exclusive")
	}
	if n := max(len(d.RPC), len(d.Churn)); n > 0 && (d.Fabric == nil || n > d.Fabric.Clients) {
		return nil, fmt.Errorf("scenario: %d clients need a fabric with as many slots", n)
	}
	cfg := d.Host
	if a := d.Antagonist; a != nil && a.MLCKB > 0 {
		sizes := make([]int, cfg.NumCores())
		sizes[a.Core] = a.MLCKB << 10
		cfg.Hier.MLCSizePerCore = sizes
	}
	r := &Rig{horizon: d.Horizon, untilIdle: d.UntilIdle}
	var err error
	if f := d.Fabric; f != nil {
		r.Cluster, err = idio.NewCluster(idio.ClusterConfig{
			Host: cfg, Clients: f.Clients, ClientLink: f.ClientLink, ServerLink: f.ServerLink, QoS: cfg.QoS,
		})
		if err == nil {
			r.Sys = r.Cluster.DUT
		}
	} else {
		r.Sys, err = idio.NewSystemE(cfg)
	}
	if err != nil {
		return nil, err
	}
	sys := r.Sys
	for i, nf := range d.NFs {
		app, err := appFor(nf.App, sys)
		if err != nil {
			return nil, err
		}
		flow := sys.DefaultFlow(nf.Core)
		if nf.FrameLen > 0 {
			flow.FrameLen = nf.FrameLen
		}
		flow.DSCP = nf.DSCP
		if _, isRealloc := app.(*apps.ReallocNF); isRealloc {
			// The re-allocate mode needs pooled rings on every port.
			for _, port := range sys.Ports() {
				port.Ring(nf.Core).AttachPool(sys.NewMbufPool(2 * cfg.NIC.RingSize))
			}
		}
		sys.AddNF(nf.Core, app, flow)
		var target traffic.Receiver = sys.NIC
		if r.Cluster != nil {
			target = r.Cluster.ClientIngress(i % d.Fabric.Clients)
		}
		if g := nf.Steady; g != nil {
			gen := *g
			gen.Flow = flow
			gen.Install(sys.Sim, target)
		}
		if g := nf.Bursty; g != nil {
			gen := *g
			gen.Flow = flow
			gen.Install(sys.Sim, target)
		}
	}
	for i, c := range d.RPC {
		c.Flow = r.slotFlow(i, c.Core, c.Flow)
		r.Cluster.AddRPCClient(i, c.Core, c.ClientConfig)
	}
	for i, c := range d.Churn {
		c.Flow = r.slotFlow(i, 0, c.Flow)
		r.Cluster.AddChurnClient(i, c)
	}
	if a := d.Antagonist; a != nil {
		buf := sys.AllocRegion(uint64(a.BufKB) << 10)
		r.Antagonist = apps.NewLLCAntagonist(a.Core, buf, cfg.Hier.Clock, sys.Hier, 1)
	}
	return r, nil
}

// slotFlow is slot i's canonical flow to core, keeping f's frame
// length (when set) and DSCP.
func (r *Rig) slotFlow(i, core int, f traffic.Flow) traffic.Flow {
	flow := r.Cluster.ClientFlow(i, core)
	if f.FrameLen > 0 {
		flow.FrameLen = f.FrameLen
	}
	flow.DSCP = f.DSCP
	return flow
}

// Run starts the host, its clients and the antagonist, and runs to the
// horizon (or to idle). A watchdog trip ends the run early; it is
// reported in Results.Aborted, as data.
func (r *Rig) Run() idio.Results {
	if r.Cluster != nil {
		r.Cluster.Start()
	} else {
		r.Sys.Start()
	}
	if r.Antagonist != nil {
		r.Antagonist.Start(r.Sys.Sim)
	}
	switch {
	case r.Cluster != nil:
		res, _ := r.Cluster.Run(idio.RunOpts{Horizon: r.horizon, UntilIdle: r.untilIdle})
		return res
	case r.untilIdle:
		return r.Sys.RunUntilIdle(r.horizon)
	default:
		return r.Sys.Run(r.horizon)
	}
}
