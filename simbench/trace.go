package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"idio/internal/cpu"
	"idio/internal/nic"
	"idio/internal/pkt"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// probe records host-time spans at the seams the benchmark owns: the
// NF app on each core, the generator's hand-off into the DUT NIC, and
// each RunUntil slice. A nil probe records nothing and adds no
// wrapper, which is how untraced runs are built.
type probe struct {
	appSpan   span
	rxSpan    span
	sliceSpan span
}

// span accumulates the host time and count of one seam's calls.
type span struct {
	ns int64
	n  uint64
}

func (s *span) add(start time.Time) {
	s.ns += int64(time.Since(start))
	s.n++
}

// perCall returns the mean host nanoseconds per call.
func (s span) perCall() float64 { return ratio(float64(s.ns), float64(s.n)) }

// slice runs one RunUntil slice, timing it when traced.
func (p *probe) slice(fn func()) {
	if p == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	p.sliceSpan.add(start)
}

// app wraps a core's NF so each OnPacket call is timed.
func (p *probe) app(a cpu.App) cpu.App {
	if p == nil {
		return a
	}
	return tracedApp{inner: a, p: p}
}

type tracedApp struct {
	inner cpu.App
	p     *probe
}

func (t tracedApp) Name() string { return t.inner.Name() }

func (t tracedApp) OnPacket(env *cpu.Env, slot *nic.Slot) (sim.Duration, bool) {
	start := time.Now()
	extra, deferred := t.inner.OnPacket(env, slot)
	t.p.appSpan.add(start)
	return extra, deferred
}

// receiver wraps the DUT NIC's receive path so each hand-off from the
// traffic generator is timed.
func (p *probe) receiver(n *nic.NIC) traffic.Receiver {
	if p == nil {
		return n
	}
	return tracedRx{inner: n, p: p}
}

type tracedRx struct {
	inner *nic.NIC
	p     *probe
}

func (t tracedRx) Receive(s *sim.Simulator, pk *pkt.Packet) {
	start := time.Now()
	t.inner.Receive(s, pk)
	t.p.rxSpan.add(start)
}

// PacketPool forwards the NIC's pool, so generators behind the wrapper
// recycle packets exactly as they do without it.
func (t tracedRx) PacketPool() *pkt.Pool { return t.inner.PacketPool() }

// layerOf names the layer a function's package belongs to. The root
// idio package holds the PCIe root complex and the prefetch adapter
// besides wiring, so it is split by receiver type.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "[("); i >= 0 {
		pkg = pkg[:i]
	}
	dot := strings.LastIndex(pkg, "/") + 1
	if i := strings.IndexByte(pkg[dot:], '.'); i >= 0 {
		pkg = pkg[:dot+i]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "idio":
		switch {
		case strings.Contains(fn, "rootComplex"):
			return "pcie"
		case strings.Contains(fn, "prefetchAdapter"):
			return "core"
		}
		return "other"
	}
	switch strings.TrimPrefix(pkg, "idio/internal/") {
	case "sim":
		return "sim"
	case "nic":
		return "nic"
	case "pcie":
		return "pcie"
	case "hier", "cache", "dram", "mem":
		return "hier"
	case "core":
		return "core"
	case "cpu", "apps":
		return "cpu"
	case "net":
		return "net"
	case "flow":
		return "flow"
	case "pkt":
		return "pkt"
	}
	return "other"
}

// leafSamples decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) and adds each sample's count to the layer of its
// leaf frame: the innermost function of the first location, inlined
// frames included.
func leafSamples(profile []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("open profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("read profile: %w", err)
	}
	type sample struct {
		locs  []uint64 // location ids, leaf first
		count int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> leaf function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var locs, vals []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) == 0 {
				return nil
			}
			s.locs, s.count = locs, int64(vals[0])
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			seenLine := false
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost frame
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decode profile: %w", err)
	}
	nameOf := func(loc uint64) string {
		if i, ok := fnName[locFn[loc]]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		name := nameOf(s.locs[0])
		// A sample taken inside the asynchronous preemption handler
		// belongs to the function it interrupted.
		if name == "runtime.asyncPreempt" && len(s.locs) > 1 {
			name = nameOf(s.locs[1])
		}
		into[layerOf(name)] += s.count
	}
	return nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (wire type 2, b set) or one value at a time (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errMalformed = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (non-nil, possibly empty).
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errMalformed
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errMalformed
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errMalformed
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errMalformed
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errMalformed
			}
			msg = msg[4:]
		default:
			return errMalformed
		}
	}
	return nil
}
