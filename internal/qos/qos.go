// Package qos defines the service-class model threaded through the
// data plane: a DSCP→class map applied in the NIC filter table,
// per-class placement policy (LLC way quota, prefetch aggressiveness,
// direct-to-DRAM for scavengers), and a deterministic strict-priority
// + weighted-round-robin egress scheduler used by fabric links.
//
// The class scheme follows the classic DiffServ quartet:
//
//	EF    — expedited forwarding: latency-critical RPCs
//	AF41  — assured forwarding, high weight: interactive bulk
//	AF21  — assured forwarding, low weight: background bulk (default)
//	CS1   — scavenger: antagonist traffic, served only on idle
//
// ClassEF is deliberately class 0 so an unarmed data plane (every
// packet class 0) encodes to all-zero QoS bits on the wire and stays
// byte-identical to pre-QoS builds.
package qos

import "fmt"

// Class is a service class index.
type Class uint8

const (
	ClassEF Class = iota
	ClassAF41
	ClassAF21
	ClassCS1
	// NumClasses bounds every per-class array in the data plane.
	NumClasses = 4
)

// String names the class as used in stats keys and table columns.
func (c Class) String() string {
	switch c {
	case ClassEF:
		return "ef"
	case ClassAF41:
		return "af41"
	case ClassAF21:
		return "af21"
	case ClassCS1:
		return "cs1"
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// Map is the DSCP→class lookup installed in the NIC filter table and
// consulted by scheduled fabric links. Index by the 6-bit DSCP.
type Map [64]Class

// Class looks up the service class for a DSCP codepoint. Out-of-range
// values (corrupted TOS bytes) fall back to the default class.
func (m *Map) Class(dscp uint8) Class {
	if dscp >= 64 {
		return ClassAF21
	}
	return m[dscp]
}

// ClassPolicy is one class's treatment, end to end.
type ClassPolicy struct {
	// DSCPs are the codepoints mapped to this class. Unlisted
	// codepoints fall to AF21, the default class.
	DSCPs []uint8
	// Priority marks the class strict-priority at egress: served
	// before any weighted or scavenger class, in class order.
	Priority bool
	// Weight is the WRR share for non-priority classes. Weight 0 and
	// no Priority marks a scavenger, served only when every other
	// queue is empty.
	Weight int
	// QueueDepth bounds the class's egress queue on scheduled links
	// (0 = inherit the link's queue depth).
	QueueDepth int
	// LLCWays is the DDIO way quota for this class's inbound DMA
	// placement (0 = inherit the host-wide DDIO mask).
	LLCWays int
	// PrefetchEvery decimates IDIO prefetch hints for this class:
	// 0 or 1 hints every line, N>1 every Nth line, -1 never.
	PrefetchEvery int
	// DirectDRAM bypasses the LLC for this class's payload lines
	// (headers keep the normal path so descriptors stay pollable).
	DirectDRAM bool
}

// Config is the full per-class policy table. A nil *Config anywhere in
// the stack means QoS is disarmed: links keep their FIFO egress queue,
// the NIC leaves every packet in class 0 and DDIO uses the host-wide
// way mask.
type Config struct {
	Classes [NumClasses]ClassPolicy
	// Quantum is the WRR byte quantum per weight unit (0 = 2048,
	// comfortably above one MTU frame so weight 1 advances every
	// round).
	Quantum int
}

// DefaultQuantum is the WRR byte quantum used when Config.Quantum is 0.
const DefaultQuantum = 2048

// DefaultConfig is the canonical four-class policy: EF strict-priority
// with a generous way quota, AF41:AF21 sharing 3:1, and CS1 as a
// direct-to-DRAM scavenger that never prefetches.
func DefaultConfig() *Config {
	return &Config{
		Classes: [NumClasses]ClassPolicy{
			ClassEF:   {DSCPs: []uint8{46}, Priority: true, LLCWays: 4},
			ClassAF41: {DSCPs: []uint8{34, 36, 38}, Weight: 3, LLCWays: 2},
			ClassAF21: {DSCPs: []uint8{18, 20, 22}, Weight: 1, LLCWays: 2, PrefetchEvery: 2},
			ClassCS1:  {DSCPs: []uint8{8}, Weight: 0, LLCWays: 1, DirectDRAM: true, PrefetchEvery: -1},
		},
	}
}

// Validate rejects malformed policies: out-of-range or duplicated
// DSCPs, negative weights/depths/quotas, and prefetch strides below
// the -1 sentinel.
func (c *Config) Validate() error {
	var owner [64]int
	for i := range owner {
		owner[i] = -1
	}
	for ci := range c.Classes {
		p := &c.Classes[ci]
		for _, d := range p.DSCPs {
			if d >= 64 {
				return fmt.Errorf("qos: class %v dscp %d out of range [0,63]", Class(ci), d)
			}
			if prev := owner[d]; prev >= 0 && prev != ci {
				return fmt.Errorf("qos: dscp %d mapped to both %v and %v", d, Class(prev), Class(ci))
			}
			owner[d] = ci
		}
		if p.Weight < 0 {
			return fmt.Errorf("qos: class %v negative weight %d", Class(ci), p.Weight)
		}
		if p.QueueDepth < 0 {
			return fmt.Errorf("qos: class %v negative queue depth %d", Class(ci), p.QueueDepth)
		}
		if p.LLCWays < 0 {
			return fmt.Errorf("qos: class %v negative llc ways %d", Class(ci), p.LLCWays)
		}
		if p.PrefetchEvery < -1 {
			return fmt.Errorf("qos: class %v prefetch stride %d below -1", Class(ci), p.PrefetchEvery)
		}
	}
	if c.Quantum < 0 {
		return fmt.Errorf("qos: negative quantum %d", c.Quantum)
	}
	return nil
}

// BuildMap compiles the DSCP→class table. Unlisted codepoints map to
// AF21, the default best-effort class.
func (c *Config) BuildMap() (*Map, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var m Map
	for i := range m {
		m[i] = ClassAF21
	}
	for ci := range c.Classes {
		for _, d := range c.Classes[ci].DSCPs {
			m[d] = Class(ci)
		}
	}
	return &m, nil
}

// Sched is the deterministic egress scheduler state for one link:
// strict-priority classes drain first in class order, weighted classes
// share by byte-credit WRR, and scavengers (weight 0, non-priority)
// run only when everything else is empty. Pure decision state — the
// link owns the queues and calls Pick/Charge; no allocation, no clock.
type Sched struct {
	cfg     *Config
	quantum int64
	credit  [NumClasses]int64
}

// NewSched builds scheduler state over a validated config.
func NewSched(cfg *Config) *Sched {
	q := int64(cfg.Quantum)
	if q == 0 {
		q = DefaultQuantum
	}
	return &Sched{cfg: cfg, quantum: q}
}

// Pick chooses the next class to serve given the per-class queue
// backlog (packet counts). Returns -1 when every queue is empty. The
// decision depends only on the backlog and accumulated charges, so
// replaying the same sequence reproduces the same schedule.
func (s *Sched) Pick(backlog *[NumClasses]int) int {
	// Strict-priority classes first, in class order.
	for c := 0; c < NumClasses; c++ {
		if s.cfg.Classes[c].Priority && backlog[c] > 0 {
			return c
		}
	}
	// Weighted round-robin by byte credit. When no backlogged weighted
	// class holds positive credit, refill backlogged classes by
	// weight×quantum and clamp idle ones so stale credit cannot burst.
	for {
		anyWeighted := false
		for c := 0; c < NumClasses; c++ {
			p := &s.cfg.Classes[c]
			if p.Priority || p.Weight == 0 || backlog[c] == 0 {
				continue
			}
			anyWeighted = true
			if s.credit[c] > 0 {
				return c
			}
		}
		if !anyWeighted {
			break
		}
		for c := 0; c < NumClasses; c++ {
			p := &s.cfg.Classes[c]
			if p.Priority || p.Weight == 0 {
				continue
			}
			if backlog[c] > 0 {
				s.credit[c] += int64(p.Weight) * s.quantum
			} else {
				s.credit[c] = 0
			}
		}
	}
	// Scavengers only when all priority and weighted queues are empty.
	for c := 0; c < NumClasses; c++ {
		p := &s.cfg.Classes[c]
		if !p.Priority && p.Weight == 0 && backlog[c] > 0 {
			return c
		}
	}
	return -1
}

// Charge debits a served packet against the class's WRR credit.
// Priority and scavenger classes carry no credit and are unaffected.
func (s *Sched) Charge(class, bytes int) {
	if class < 0 || class >= NumClasses {
		return
	}
	p := &s.cfg.Classes[class]
	if !p.Priority && p.Weight > 0 {
		s.credit[class] -= int64(bytes)
	}
}
