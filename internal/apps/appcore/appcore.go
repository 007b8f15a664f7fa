// Package appcore holds the vocabulary shared by the proxy applications:
// the one run path every Problem.Run takes (Run; Problem.Run is an app's
// only run entry, and its per-model ports stay private), the run-result
// record every implementation returns (Result, built by NewResult), precision
// helpers, the conversion from cache-simulator measurements to the timing
// model's (MissRate, Coalesce) memory traits (Traits, which streams an app's
// generated address trace through the simulated LLC without holding it),
// the split of a run into a functional pass and a pricing pass (Recorder,
// Tape, Play) with the pricing views a pass tallies (View), and the
// run-scoped memo problem setup and functional passes are shared through
// (Memoize), with characterizations in a table that may outlive the run
// (Characterize).
package appcore

import (
	"fmt"

	"hetbench/internal/memo"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
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

// NewResult is the Result of a run of app under model that has just
// ended on m: m's clock splits, plus the run's checksum and the app's
// kernel count.
func NewResult(m *sim.Machine, app string, model modelapi.Name, prec timing.Precision, checksum float64, kernels int) Result {
	return Result{
		App: app, Model: model, Machine: m.Name(), Precision: prec,
		ElapsedNs: m.ElapsedNs(), KernelNs: m.KernelNs(), TransferNs: m.TransferNs(), FaultNs: m.FaultNs(),
		Checksum: checksum, Kernels: kernels,
	}
}

// Run is the one run path of every app's Problem.Run: it resets m's
// clock, opens the run span app/model and calls model's port on p inside
// it. It panics for a model ports has no entry for. A table may also key
// an app's ablation variant under a name of its own: the span names the
// variant, the port's Result the model it runs.
func Run[P, R any](m *sim.Machine, app string, model modelapi.Name, p P, ports map[modelapi.Name]func(P, *sim.Machine) R) (r R) {
	m.ResetClock()
	m.InRun(app+"/"+string(model), func() {
		port, ok := ports[model]
		if !ok {
			panic(fmt.Sprintf("%s: no implementation for %s", app, model))
		}
		r = port(p, m)
	})
	return r
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
// the config fields it is built from, a functional pass on the app config
// alone, since precision and kernel variant only pick the pricing view
// its Tape is replayed in (both through Memoize), and a characterization
// on the inputs that determine its address traces (app config, precision
// and the device Geometry; through Characterize, into the memo's
// characterization table, which may outlive the run). Values stored in it
// are shared by every cell of the run and must never be mutated. Build
// one with NewMemo; a nil *Memo computes every time.
type Memo struct {
	run    memo.Map[any, any]
	traits *Characterizations
}

// Characterizations is a table of LLC characterizations. Its keys are
// app config, precision and device Geometry, never a seed, and its values
// are plain numbers, so one table can serve many runs: hetbenchd keeps
// one for its lifetime.
type Characterizations = memo.Map[any, any]

// NewMemo returns an empty run memo whose characterizations go to
// traits, which other memos may share; nil gives the memo a table of its
// own.
func NewMemo(traits *Characterizations) *Memo {
	if traits == nil {
		traits = new(Characterizations)
	}
	return &Memo{traits: traits}
}

// Len reports how many entries m holds, its characterization table's
// included.
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	return m.run.Len() + m.traits.Len()
}

// Memoize returns compute's result for key, computing it at most once
// per memo. A nil memo computes every time. Setup and (through Play)
// functional passes are stored through it.
func Memoize[K comparable, V any](m *Memo, key K, compute func() V) V {
	if m == nil {
		return compute()
	}
	return get(&m.run, key, compute)
}

// Characterize is Memoize for an LLC characterization: it computes at
// most once per characterization table, which may outlive m. A nil memo
// computes every time.
func Characterize[K comparable, V any](m *Memo, key K, compute func() V) V {
	if m == nil {
		return compute()
	}
	return get(m.traits, key, compute)
}

func get[K comparable, V any](t *memo.Map[any, any], key K, compute func() V) V {
	return t.Get(key, func() any { return compute() }).(V)
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
// stream straight into the cache; no trace is ever materialized. An
// access that lies within one line is one cache.Access; one that
// straddles lines goes through AccessRange, one Access per line. The
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
	lineMask := uint64(dev.CacheLineBytes - 1)
	n := 0
	trace(func(addr uint64) {
		if addr&lineMask+uint64(accessBytes) <= lineMask+1 {
			c.Access(addr)
		} else {
			c.AccessRange(addr, accessBytes)
		}
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
