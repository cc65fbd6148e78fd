package pcie

import (
	"idio/internal/mem"
	"idio/internal/obs"
)

// IOMMU validates DMA targets against registered mappings, as the
// platform's address-translation unit would: a device may only reach
// memory the driver has mapped for it (descriptor rings and packet
// buffers). Unmapped accesses fault and are dropped instead of
// corrupting arbitrary memory — both a safety net for the simulated
// driver stack and a realism feature.
type IOMMU struct {
	regions mem.RegionSet

	// ReadFaults/WriteFaults count rejected accesses.
	ReadFaults  uint64
	WriteFaults uint64
}

// NewIOMMU returns an IOMMU with no mappings (everything faults).
func NewIOMMU() *IOMMU { return &IOMMU{} }

// Map registers a region as DMA-able. Overlapping and adjacent
// regions are coalesced (see mem.RegionSet); mapping is idempotent.
func (u *IOMMU) Map(r mem.Region) { u.regions.Add(r) }

// Mapped reports how many disjoint regions are registered.
func (u *IOMMU) Mapped() int { return u.regions.Len() }

// Allowed reports whether the cacheline at lineAddr is inside any
// mapping, judged by the line's first byte.
func (u *IOMMU) Allowed(lineAddr uint64) bool {
	return u.regions.Contains(mem.LineAddr(lineAddr).Addr())
}

// CheckWrite validates a DMA write target, counting a fault when
// rejected.
func (u *IOMMU) CheckWrite(lineAddr uint64) bool {
	if u.Allowed(lineAddr) {
		return true
	}
	u.WriteFaults++
	return false
}

// CheckRead validates a DMA read target.
func (u *IOMMU) CheckRead(lineAddr uint64) bool {
	if u.Allowed(lineAddr) {
		return true
	}
	u.ReadFaults++
	return false
}

// RegisterMetrics registers the IOMMU fault counters under prefix
// (e.g. "iommu.") into the observability registry.
func (u *IOMMU) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"read_faults", func() uint64 { return u.ReadFaults })
	reg.CounterFunc(prefix+"write_faults", func() uint64 { return u.WriteFaults })
}
