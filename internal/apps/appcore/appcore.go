// Package appcore holds the vocabulary shared by the proxy applications:
// the run-result record every implementation returns, precision helpers,
// the conversion from cache-simulator measurements to the timing model's
// (MissRate, Coalesce) memory traits (Traits, which streams an app's
// generated address trace through the simulated LLC without holding it),
// the split of a run into a functional pass and a pricing pass (Recorder,
// Tape, Play) with the pricing views a pass tallies (View), and the
// run-scoped memo problem setup, characterizations and functional passes
// are shared through (Memoize).
package appcore

import (
	"fmt"

	"hetbench/internal/memo"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim/cache"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/timing"
)

// Result is the outcome of running one application under one programming
// model on one machine.
type Result struct {
	App     string
	Model   modelapi.Name
	Machine string
	// Precision the run was timed at.
	Precision timing.Precision

	// ElapsedNs is total simulated time; KernelNs and TransferNs are the
	// device-compute and data-movement shares (the paper's Figures 8a/9a
	// compare kernel-only time for read-benchmark).
	ElapsedNs  float64
	KernelNs   float64
	TransferNs float64
	// FaultNs is virtual time lost to injected faults and their recovery
	// (zero unless the run executed under internal/fault injection).
	FaultNs float64

	// Checksum is an application-defined digest of the computed output,
	// used to cross-verify implementations against the serial reference.
	Checksum float64
	// Kernels is the number of distinct device kernels the
	// implementation used (Table I).
	Kernels int
}

// SpeedupOver returns baseline.ElapsedNs / r.ElapsedNs — the paper's
// speedup metric against the OpenMP run.
func (r Result) SpeedupOver(baseline Result) float64 {
	if r.ElapsedNs <= 0 {
		return 0
	}
	return baseline.ElapsedNs / r.ElapsedNs
}

// String summarizes the result for logs.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s on %s (%s): %.3f ms (kernel %.3f, xfer %.3f), checksum %g",
		r.App, r.Model, r.Machine, r.Precision,
		r.ElapsedNs/1e6, r.KernelNs/1e6, r.TransferNs/1e6, r.Checksum)
}

// EltBytes returns the element size for a precision (4 or 8).
func EltBytes(p timing.Precision) float64 {
	if p == timing.Double {
		return 8
	}
	return 4
}

// Flops splits n floating-point operations into (sp, dp) by precision —
// the tally helper every kernel body uses.
func Flops(p timing.Precision, n float64) (sp, dp float64) {
	if p == timing.Double {
		return 0, n
	}
	return n, 0
}

// Streams approximates how many independent wavefront positions walk a
// data structure concurrently on a device: each GPU CU keeps several
// waves resident (GCN supports up to 40; 8 is a typical active set under
// register pressure). Trace generators interleave this many access
// streams so LLC measurements reflect real occupancy rather than a single
// serial walk.
func Streams(dev *device.Device) int {
	return dev.ComputeUnits * 8
}

// Memo is a run's memo of pure work. Each app keys it with its own
// unexported key types: problem setup (LULESH's mesh, XSBench's table) on
// the config fields it is built from, a characterization on the inputs
// that determine its address traces (app config, precision and the
// device Geometry), a functional pass on the app config alone, since
// precision and kernel variant only pick the pricing view its Tape is
// replayed in. Values stored in it are shared by every cell of the run
// and must never be mutated.
type Memo = memo.Map[any, any]

// Memoize returns compute's result for key, computing it at most once
// per memo. A nil memo computes every time. Setup, characterizations and
// (through Play) functional passes are all stored through it.
func Memoize[K comparable, V any](m *Memo, key K, compute func() V) V {
	return m.Get(key, func() any { return compute() }).(V)
}

// Geometry is every device field a characterization reads: the LLC shape
// Traits replays through, and the compute-unit count Streams derives
// trace interleaving from. It keys characterization memos, so two devices
// with equal Geometry share one characterization.
type Geometry struct {
	L2SizeBytes, L2Ways, CacheLineBytes, ComputeUnits int
}

// GeometryOf extracts dev's Geometry.
func GeometryOf(dev *device.Device) Geometry {
	return Geometry{
		L2SizeBytes:    dev.L2SizeBytes,
		L2Ways:         dev.L2Ways,
		CacheLineBytes: dev.CacheLineBytes,
		ComputeUnits:   dev.ComputeUnits,
	}
}

// Traits replays a sampled address trace through the device's last-level
// cache and converts the outcome into the timing model's memory traits.
// trace generates the trace: it calls touch with each access's byte
// address, in order, and each access touches accessBytes. The addresses
// stream straight into the cache; no trace is ever materialized. The
// traits are:
//
//   - missRate: the fraction of requested bytes that DRAM must supply,
//   - coalesce: the efficiency lost to fetching whole lines for partial
//     use (scattered accesses fetch 64 bytes to deliver 8).
//
// The per-access cache miss rate is also returned for Table I reporting.
func Traits(dev *device.Device, accessBytes int, trace func(touch func(addr uint64))) (missRate, coalesce, accessMissRate float64) {
	if accessBytes <= 0 {
		return 0, 1, 0
	}
	cfg := cache.Config{SizeBytes: dev.L2SizeBytes, LineBytes: dev.CacheLineBytes, Ways: dev.L2Ways}
	c := cache.New(cfg)
	n := 0
	trace(func(addr uint64) {
		c.AccessRange(addr, accessBytes)
		n++
	})
	if n == 0 {
		return 0, 1, 0
	}
	st := c.Stats()
	accessMissRate = st.MissRate()
	requested := float64(n * accessBytes)
	fetched := float64(st.Misses) * float64(dev.CacheLineBytes)
	ratio := fetched / requested
	if ratio <= 1 {
		return ratio, 1, accessMissRate
	}
	return 1, 1 / ratio, accessMissRate
}
