// Package pcie models the PCI Express link between host memory and a
// discrete GPU: fixed per-transfer setup latency plus payload time at the
// link's effective bandwidth, and an accounting ledger so experiments can
// attribute how much of a run went to data movement (the paper's central
// discrete-GPU result).
package pcie

import (
	"fmt"
	"sync"
)

// Link describes one PCIe connection.
type Link struct {
	// Name labels the link in reports ("PCIe 3.0 x16").
	Name string
	// BandwidthGBs is effective payload bandwidth per direction.
	// PCIe 3.0 x16 is 15.75 GB/s raw; ~12 GB/s effective after TLP
	// overhead. The 2015 Catalyst stack measured ~6 GB/s for pageable
	// host memory, which we use as the default.
	BandwidthGBs float64
	// LatencyUs is the fixed cost of one DMA transfer (driver call,
	// ring-buffer kick, completion interrupt).
	LatencyUs float64

	mu    sync.Mutex
	stats Stats
}

// Stats is the ledger of traffic over a link.
type Stats struct {
	TransfersToDevice   int
	TransfersFromDevice int
	BytesToDevice       int64
	BytesFromDevice     int64
	TotalTimeUs         float64
}

// Default returns the link used for the R9 280X experiments: PCIe 3.0 x16
// with the era's driver stack.
func Default() *Link {
	return &Link{Name: "PCIe 3.0 x16", BandwidthGBs: 6.0, LatencyUs: 20}
}

// Validate reports an error if the link parameters are unusable.
func (l *Link) Validate() error {
	if l.BandwidthGBs <= 0 {
		return fmt.Errorf("pcie %s: bandwidth %g must be positive", l.Name, l.BandwidthGBs)
	}
	if l.LatencyUs < 0 {
		return fmt.Errorf("pcie %s: latency %g must be non-negative", l.Name, l.LatencyUs)
	}
	return nil
}

// TransferTimeUs returns the time to move n bytes one way, in microseconds.
// Zero-byte transfers still pay the setup latency (a real cudaMemcpy of 0
// bytes does too), but negative sizes are a caller bug.
func (l *Link) TransferTimeUs(bytes int64) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("pcie: negative transfer size %d", bytes))
	}
	// bytes / (GB/s) = ns; convert to us.
	return l.LatencyUs + float64(bytes)/l.BandwidthGBs/1e3
}

// ToDevice records a host→device transfer and returns its duration in us.
func (l *Link) ToDevice(bytes int64) float64 {
	t := l.TransferTimeUs(bytes)
	l.mu.Lock()
	l.stats.TransfersToDevice++
	l.stats.BytesToDevice += bytes
	l.stats.TotalTimeUs += t
	l.mu.Unlock()
	return t
}

// FromDevice records a device→host transfer and returns its duration in us.
func (l *Link) FromDevice(bytes int64) float64 {
	t := l.TransferTimeUs(bytes)
	l.mu.Lock()
	l.stats.TransfersFromDevice++
	l.stats.BytesFromDevice += bytes
	l.stats.TotalTimeUs += t
	l.mu.Unlock()
	return t
}

// Stats returns a snapshot of the ledger.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
