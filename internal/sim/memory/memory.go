// Package memory models the DRAM subsystem of a simulated device: the
// bandwidth it can deliver at a given memory clock, how that bandwidth is
// throttled when the cores do not generate enough outstanding requests
// (the latency limit that shapes the paper's Figure 7 at low core clocks),
// and how long a given volume of DRAM traffic takes to drain.
package memory

import (
	"fmt"

	"hetbench/internal/sim/device"
)

// Efficiency is the fraction of theoretical DRAM bandwidth that streaming
// kernels achieve in practice (row-buffer conflicts, refresh, command
// overhead). ~85% matches measured STREAM-like numbers on both GDDR5 and
// DDR3 systems of the era.
const Efficiency = 0.85

// System models one device's path to DRAM.
type System struct {
	dev *device.Device
	// memClockMHz is the active memory clock, which experiments may
	// override (Fig 7 sweeps 480–1250 MHz on the dGPU).
	memClockMHz int
}

// NewSystem builds a memory system for dev at its catalog memory clock.
func NewSystem(dev *device.Device) *System {
	return &System{dev: dev, memClockMHz: dev.MemClockMHz}
}

// SetMemClock overrides the memory clock in MHz. It panics on non-positive
// values: clock overrides come from experiment code, not user input.
func (s *System) SetMemClock(mhz int) {
	if mhz <= 0 {
		panic(fmt.Sprintf("memory: invalid clock %d MHz", mhz))
	}
	s.memClockMHz = mhz
}

// PeakBandwidthGBs returns the raw DRAM bandwidth at the active clock.
func (s *System) PeakBandwidthGBs() float64 {
	return s.dev.BandwidthAt(s.memClockMHz)
}

// RequestLimitedBandwidthGBs returns the bandwidth ceiling imposed by the
// cores' ability to keep requests in flight, at the given core clock.
//
// Little's law: sustainable request throughput = outstanding / latency.
// Each compute unit can keep MaxOutstandingReqs cache lines in flight and
// issues requests at a rate proportional to its clock. At low core clocks
// the issue rate, not DRAM, is the bottleneck — this term is what makes
// read-benchmark's memory-frequency scaling flatten at 200–300 MHz core
// clocks in Figure 7a.
func (s *System) RequestLimitedBandwidthGBs(coreMHz int) float64 {
	d := s.dev
	// Requests in flight across the whole device.
	outstanding := float64(d.ComputeUnits * d.MaxOutstandingReqs)
	// Latency shrinks slightly as memory clocks rise (command rate), so
	// scale the DRAM-bound half of latency with the clock ratio.
	lat := s.latencyNs()
	latencyBound := outstanding * float64(d.CacheLineBytes) / lat // bytes/ns = GB/s
	// Issue-rate bound: a CU sustains roughly one vector-memory cache
	// line per memIssueCadence core clocks once address generation, L1
	// and L2 arbitration are accounted. At catalog clocks this sits just
	// above the derated DRAM peak (so DRAM binds), but at 200–300 MHz it
	// clamps hard — the Figure 7 flattening.
	const memIssueCadence = 8.0
	issuePerNs := float64(d.ComputeUnits) * float64(coreMHz) / 1000.0 / memIssueCadence
	issueBound := issuePerNs * float64(d.CacheLineBytes)
	if issueBound < latencyBound {
		return issueBound
	}
	return latencyBound
}

func (s *System) latencyNs() float64 {
	d := s.dev
	scale := float64(d.MemClockMHz) / float64(s.memClockMHz)
	// Half the latency is DRAM-array time (clock-dependent), half is
	// fixed interconnect time.
	return d.MemLatencyNs * (0.5 + 0.5*scale)
}

// EffectiveBandwidthGBs returns the bandwidth a kernel actually sees at a
// core clock: the minimum of DRAM peak (scaled by Efficiency) and the
// request-generation limit.
func (s *System) EffectiveBandwidthGBs(coreMHz int) float64 {
	peak := s.PeakBandwidthGBs() * Efficiency
	limited := s.RequestLimitedBandwidthGBs(coreMHz)
	if limited < peak {
		return limited
	}
	return peak
}

// DrainTimeNs returns the time to move `bytes` of DRAM traffic at the
// effective bandwidth, plus one access latency for the leading edge.
func (s *System) DrainTimeNs(bytes float64, coreMHz int) float64 {
	if bytes <= 0 {
		return 0
	}
	bw := s.EffectiveBandwidthGBs(coreMHz) // GB/s == bytes/ns
	return s.latencyNs() + bytes/bw
}
