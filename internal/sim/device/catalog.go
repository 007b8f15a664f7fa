package device

// The catalog mirrors Table II of the paper plus the CPU host used as the
// OpenMP baseline. Constructors return fresh copies so callers may mutate
// clock fields for sweep experiments without aliasing.

// R9280X returns the AMD Radeon R9 280X discrete GPU description
// (Tahiti XT: 32 CUs, 2048 stream processors, 925 MHz, 3 GB GDDR5 at
// 1500 MHz on a 384-bit bus for 288 GB/s raw; Table II lists 258 GB/s
// deliverable, which we use as the peak at the catalog memory clock).
func R9280X() *Device {
	return &Device{
		Name:                   "AMD Radeon R9 280X",
		Kind:                   KindDiscreteGPU,
		ComputeUnits:           32,
		LanesPerCU:             64,
		WavefrontSize:          64,
		CoreClockMHz:           925,
		MemClockMHz:            1250, // top of the paper's Fig 7 sweep
		FlopsPerLanePerClock:   2,
		DPRatio:                0.25,
		MemKind:                MemGDDR5,
		MemBusBits:             384,
		PeakBandwidthGBs:       258,
		DeviceMemoryBytes:      3 << 30,
		UnifiedMemory:          false,
		L2SizeBytes:            768 << 10, // 24 × 32 KB slices on Tahiti
		L2Ways:                 16,
		CacheLineBytes:         64,
		LDSPerCUBytes:          64 << 10,
		LDSBandwidthGBs:        3790, // one 4-byte LDS op/lane/clock
		MemLatencyNs:           350,
		MaxOutstandingReqs:     80,
		KernelLaunchOverheadUs: 8,
	}
}

// A10_7850K returns the GPU side of the AMD A10-7850K APU (Kaveri: 8 GCN
// CUs = 512 stream processors at 720 MHz sharing dual-channel DDR3-2133,
// Table II lists 33 GB/s peak shared with the CPU). Table II's "768 stream
// processors / 12 compute units" counts the 4 CPU cores' resources too; the
// GPU half is 8 CUs × 64 lanes.
func A10_7850K() *Device {
	return &Device{
		Name:                   "AMD A10-7850K APU (GPU)",
		Kind:                   KindIntegratedGPU,
		ComputeUnits:           8,
		LanesPerCU:             64,
		WavefrontSize:          64,
		CoreClockMHz:           720,
		MemClockMHz:            1066, // DDR3-2133 I/O clock basis
		FlopsPerLanePerClock:   2,
		DPRatio:                1.0 / 16.0,
		MemKind:                MemDDR3,
		MemBusBits:             128,
		PeakBandwidthGBs:       33,
		DeviceMemoryBytes:      2 << 30,
		UnifiedMemory:          true,
		L2SizeBytes:            512 << 10,
		L2Ways:                 16,
		CacheLineBytes:         64,
		LDSPerCUBytes:          64 << 10,
		LDSBandwidthGBs:        737,
		MemLatencyNs:           180,
		MaxOutstandingReqs:     48,
		KernelLaunchOverheadUs: 4, // HSA user-mode queues are cheaper
	}
}

// HostCPU returns the 4-core Steamroller CPU side of the A10-7850K at
// 3.7 GHz, the paper's OpenMP baseline. LanesPerCU models 128-bit SIMD
// (4 SP lanes); DPRatio 0.5 halves throughput for doubles.
func HostCPU() *Device {
	return &Device{
		Name:                   "AMD A10-7850K CPU (4 cores)",
		Kind:                   KindCPU,
		ComputeUnits:           4,
		LanesPerCU:             4,
		WavefrontSize:          4, // SIMD-width instruction granularity
		IssuePerClock:          3, // superscalar front end
		CoreClockMHz:           3700,
		MemClockMHz:            1066,
		FlopsPerLanePerClock:   2,
		DPRatio:                0.5,
		MemKind:                MemDDR3,
		MemBusBits:             128,
		PeakBandwidthGBs:       25, // CPU-achievable share of the 33 GB/s
		DeviceMemoryBytes:      32 << 30,
		UnifiedMemory:          true,
		L2SizeBytes:            4 << 20,
		L2Ways:                 16,
		CacheLineBytes:         64,
		LDSPerCUBytes:          0,
		LDSBandwidthGBs:        0,
		MemLatencyNs:           90,
		MaxOutstandingReqs:     10,
		KernelLaunchOverheadUs: 0.5, // thread-team fork/join
	}
}
