// Package pcie models the PCIe transaction layer at the fidelity IDIO
// requires: memory-write/read TLPs carrying one cacheline each, with
// the IDIO classifier's metadata embedded in the reserved bits of the
// TLP header's first DWord exactly as Fig. 7 of the paper specifies.
//
// Encoding (DW0 bit positions, Fig. 7):
//
//	bit 31           isHeader — this DMA carries the packet's first
//	                 cacheline (and therefore the protocol headers)
//	bit 23, 19:16, 11  destCore[5:0] — target physical core; the
//	                 all-ones value 63 signals application class 1
//	                 (direct DRAM), so at most 63 cores are addressable
//	bit 10           isBurst — the classifier detected an RX burst for
//	                 this core in the current 1 µs window
package pcie

import "fmt"

// MaxCores is the largest encodable destination core number; the
// all-ones pattern is reserved for application class 1.
const MaxCores = 63

// classOneCore is the reserved destCore encoding signalling appClass 1.
const classOneCore = 63

// Bit positions of the destCore field within DW0, most significant
// first: destCore[5] is bit 23, destCore[4:1] are bits 19:16, and
// destCore[0] is bit 11.
var destCoreBits = [6]uint{23, 19, 18, 17, 16, 11}

const (
	isHeaderBit = 31
	isBurstBit  = 10
	// qosShift places the 2-bit service class in DW0 bits 9:8. Class 0
	// (EF / unclassified) encodes as zero bits, so a data plane without
	// QoS armed emits the exact pre-QoS DW0 values. These bits are
	// deliberately absent from MetaBits: fault injectors keep flipping
	// the same historical bit set.
	qosShift = 8
	// MaxQoSClass bounds the encodable service class.
	MaxQoSClass = 3
)

// Meta is the IDIO classifier metadata carried by one DMA transaction
// (Alg. 1's [appClass, isHeader, isBurst, destCore] vector).
type Meta struct {
	// AppClass is 0 (short use distance: cache steering applies) or 1
	// (long use distance: payload goes straight to DRAM).
	AppClass uint8
	// IsHeader marks the transaction carrying the packet's first line.
	IsHeader bool
	// IsBurst marks transactions arriving within a detected burst.
	IsBurst bool
	// DestCore is the consuming core (meaningful for AppClass 0).
	DestCore int
	// QoS is the service class mapped from the packet's DSCP (bits
	// 9:8; 0 = EF or unclassified).
	QoS uint8
}

// EncodeDW0 packs the metadata into the reserved bits of a TLP DW0.
// Non-reserved bits are left zero; hardware would OR these into the
// regular header fields.
func EncodeDW0(m Meta) (uint32, error) {
	var dw uint32
	core := m.DestCore
	if m.AppClass == 1 {
		core = classOneCore
	} else if m.AppClass != 0 {
		return 0, fmt.Errorf("pcie: bad app class %d", m.AppClass)
	} else if core < 0 || core >= MaxCores {
		return 0, fmt.Errorf("pcie: destCore %d out of range [0,%d)", core, MaxCores)
	}
	for i, bit := range destCoreBits {
		if core&(1<<(5-i)) != 0 {
			dw |= 1 << bit
		}
	}
	if m.IsHeader {
		dw |= 1 << isHeaderBit
	}
	if m.IsBurst {
		dw |= 1 << isBurstBit
	}
	if m.QoS > MaxQoSClass {
		return 0, fmt.Errorf("pcie: qos class %d out of range [0,%d]", m.QoS, MaxQoSClass)
	}
	dw |= uint32(m.QoS) << qosShift
	return dw, nil
}

// DecodeDW0 extracts the metadata from a TLP DW0.
func DecodeDW0(dw uint32) Meta {
	var core int
	for i, bit := range destCoreBits {
		if dw&(1<<bit) != 0 {
			core |= 1 << (5 - i)
		}
	}
	m := Meta{
		IsHeader: dw&(1<<isHeaderBit) != 0,
		IsBurst:  dw&(1<<isBurstBit) != 0,
		QoS:      uint8(dw>>qosShift) & MaxQoSClass,
	}
	if core == classOneCore {
		m.AppClass = 1
	} else {
		m.DestCore = core
	}
	return m
}

// WriteTLP is one inbound (NIC-to-host) posted memory write of a single
// cacheline.
type WriteTLP struct {
	LineAddr uint64 // cacheline address (byte addr >> 6)
	DW0      uint32
}

// ReadTLP is one outbound (host-to-NIC) memory read of a single
// cacheline.
type ReadTLP struct {
	LineAddr uint64
}

// NewWriteTLP builds a write TLP with encoded metadata.
func NewWriteTLP(lineAddr uint64, m Meta) (WriteTLP, error) {
	dw, err := EncodeDW0(m)
	if err != nil {
		return WriteTLP{}, err
	}
	return WriteTLP{LineAddr: lineAddr, DW0: dw}, nil
}

// Meta decodes the transaction's metadata.
func (t WriteTLP) Meta() Meta { return DecodeDW0(t.DW0) }

// metaBits lists every DW0 bit position carrying IDIO metadata:
// isHeader, isBurst, then destCore from its most significant bit.
var metaBits = func() (b [NumMetaBits]uint) {
	b[0], b[1] = isHeaderBit, isBurstBit
	copy(b[2:], destCoreBits[:])
	return b
}()

// NumMetaBits is the number of DW0 bits carrying IDIO metadata.
const NumMetaBits = 2 + len(destCoreBits)

// MetaBits returns a copy of the DW0 bit positions carrying IDIO
// metadata: isHeader, isBurst, then destCore from its most significant
// bit. Fault injectors flip these to model single-event upsets in the
// reserved header bits (a mis-steer the classifier's consumer must
// tolerate).
func MetaBits() []uint { return append([]uint(nil), metaBits[:]...) }

// FlipMetaBit returns the TLP with the i-th metadata bit (an index
// into MetaBits, modulo NumMetaBits) inverted. The TLP itself is
// unchanged; the caller forwards the corrupted copy.
func (t WriteTLP) FlipMetaBit(i int) WriteTLP {
	t.DW0 ^= 1 << metaBits[i%NumMetaBits]
	return t
}
