// Package timing converts measured kernel work (flops, bytes, instructions)
// into simulated execution time on a described device.
//
// The model is a roofline with a latency/request-generation refinement:
//
//	t_kernel = max(t_alu, t_mem, t_lds, t_issue) + t_launch
//
// where t_mem uses the memory system's effective bandwidth at the active
// core clock (so starving the memory system at low core clocks flattens
// memory scaling, as in the paper's Figure 7), and t_alu is scaled by the
// programming model's vectorization efficiency (the per-compiler code-
// generation quality that the paper measures with read-benchmark).
package timing

import (
	"fmt"
	"math"

	"hetbench/internal/sim/device"
	"hetbench/internal/sim/memory"
)

// Precision selects single or double precision arithmetic throughput.
type Precision int

const (
	// Single precision (32-bit floats).
	Single Precision = iota
	// Double precision (64-bit floats); throughput scaled by DPRatio.
	Double
)

// String names the precision.
func (p Precision) String() string {
	if p == Double {
		return "double"
	}
	return "single"
}

// KernelCost is the aggregate work of one kernel launch, measured by the
// functional executor (see sim/exec) or declared by a host-side phase.
type KernelCost struct {
	// Items is the global work size (number of work items executed).
	Items int

	// Per-item averages, measured during functional execution.
	SPFlops    float64 // single-precision floating point operations
	DPFlops    float64 // double-precision floating point operations
	LoadBytes  float64 // bytes read from global memory
	StoreBytes float64 // bytes written to global memory
	LDSBytes   float64 // bytes moved through the local data store
	Instrs     float64 // total dynamic instructions (for IPC)

	// MissRate is the fraction of global-memory traffic that reaches
	// DRAM (measured by replaying the kernel's access pattern through
	// the cache simulator); the remainder hits in the LLC.
	MissRate float64
	// Coalesce is the memory coalescing efficiency in (0,1]: 1 means
	// perfectly contiguous wavefront accesses; 1/16 models a fully
	// scattered gather where each lane touches its own cache line.
	Coalesce float64

	// VecEff in (0,1] derates ALU throughput for compiler quality; 1 is
	// hand-tuned OpenCL, lower values model the emerging models'
	// code generators. Zero means "unset" and is treated as 1.
	VecEff float64
	// MemEff in (0,1] derates achieved memory bandwidth for compiler
	// quality: generated code with fewer outstanding loads, missed
	// unrolling or poorer address arithmetic sustains a fraction of the
	// bandwidth hand-tuned code reaches (the paper's read-benchmark
	// kernel gaps: OpenCL 1×, C++ AMP 1/1.3, OpenACC 1/2). Zero means
	// "unset" and is treated as 1.
	MemEff float64
	// SerialFraction in [0,1) is the fraction of t_alu that cannot be
	// spread across lanes (e.g. OpenACC falling back to scalar code
	// executes with SerialFraction close to 1).
	SerialFraction float64
}

// Validate reports obviously-broken costs (negative work).
func (k KernelCost) Validate() error {
	switch {
	case k.Items <= 0:
		return fmt.Errorf("timing: Items %d must be positive", k.Items)
	case k.SPFlops < 0 || k.DPFlops < 0 || k.LoadBytes < 0 || k.StoreBytes < 0 || k.LDSBytes < 0 || k.Instrs < 0:
		return fmt.Errorf("timing: negative per-item work: %+v", k)
	case k.MissRate < 0 || k.MissRate > 1:
		return fmt.Errorf("timing: MissRate %g outside [0,1]", k.MissRate)
	case k.Coalesce < 0 || k.Coalesce > 1:
		return fmt.Errorf("timing: Coalesce %g outside [0,1]", k.Coalesce)
	case k.VecEff < 0 || k.VecEff > 1:
		return fmt.Errorf("timing: VecEff %g outside [0,1]", k.VecEff)
	case k.MemEff < 0 || k.MemEff > 1:
		return fmt.Errorf("timing: MemEff %g outside [0,1]", k.MemEff)
	case k.SerialFraction < 0 || k.SerialFraction >= 1:
		return fmt.Errorf("timing: SerialFraction %g outside [0,1)", k.SerialFraction)
	}
	return nil
}

// Result is the timing breakdown of one kernel launch.
type Result struct {
	TimeNs   float64 // total, including launch overhead
	ALUNs    float64
	MemNs    float64
	LDSNs    float64
	IssueNs  float64
	LaunchNs float64
	// DRAMBytes is the modeled DRAM traffic (after cache filtering and
	// coalescing derate).
	DRAMBytes float64
	// Bound names the limiting resource: "alu", "mem", "lds" or "issue".
	Bound string
	// IPC is dynamic instructions per device clock cycle, the Table I
	// normalization (instructions per cycle per SIMD, averaged over CUs).
	IPC float64
}

// Model computes kernel time on one device at possibly-overridden clocks.
type Model struct {
	dev  *device.Device
	mem  *memory.System
	core int // active core clock MHz
}

// NewModel builds a timing model at the device's catalog clocks.
func NewModel(dev *device.Device) *Model {
	return &Model{dev: dev, mem: memory.NewSystem(dev), core: dev.CoreClockMHz}
}

// SetCoreClock overrides the core clock (MHz) for sweep experiments.
func (m *Model) SetCoreClock(mhz int) {
	if mhz <= 0 {
		panic(fmt.Sprintf("timing: invalid core clock %d", mhz))
	}
	m.core = mhz
}

// SetMemClock overrides the memory clock (MHz).
func (m *Model) SetMemClock(mhz int) { m.mem.SetMemClock(mhz) }

// CoreClock returns the active core clock in MHz.
func (m *Model) CoreClock() int { return m.core }

// Kernel computes the time for one launch with the given aggregate cost.
// Precision selects which flop class dominates the DP derate; both SP and
// DP work are always accounted.
func (m *Model) Kernel(k KernelCost) Result {
	if err := k.Validate(); err != nil {
		panic(err)
	}
	d := m.dev
	vec := k.VecEff
	if vec == 0 {
		vec = 1
	}
	coal := k.Coalesce
	if coal == 0 {
		coal = 1
	}

	// Round the work up to whole waves spread across CUs: a 100-item
	// launch on a 2048-lane GPU still occupies whole wavefronts.
	lanes := float64(d.TotalLanes())
	waveItems := math.Ceil(float64(k.Items)/float64(d.WavefrontSize)) * float64(d.WavefrontSize)
	if waveItems < lanes {
		// Under-occupied device: only waveItems lanes do work but the
		// elapsed time is set by one wave's latency; modeled by
		// treating occupancy as waveItems/lanes of peak.
		lanes = waveItems
	}

	coreGHz := float64(m.core) / 1000.0

	// ALU time. Parallel portion runs across lanes at vec efficiency;
	// serial portion runs on a single lane.
	spRate := lanes * d.FlopsPerLanePerClock * coreGHz * vec             // flops/ns
	dpRate := lanes * d.FlopsPerLanePerClock * coreGHz * vec * d.DPRatio // flops/ns
	oneLaneSP := d.FlopsPerLanePerClock * coreGHz                        // flops/ns on one lane
	oneLaneDP := oneLaneSP * d.DPRatio
	items := float64(k.Items)
	par := 1 - k.SerialFraction
	var alu float64
	if k.SPFlops > 0 {
		alu += par*items*k.SPFlops/spRate + k.SerialFraction*items*k.SPFlops/oneLaneSP/float64(d.ComputeUnits)
	}
	if k.DPFlops > 0 {
		alu += par*items*k.DPFlops/dpRate + k.SerialFraction*items*k.DPFlops/oneLaneDP/float64(d.ComputeUnits)
	}

	// Memory time: traffic that reaches DRAM after cache filtering,
	// inflated by poor coalescing (partial cache lines fetched whole).
	traffic := items * (k.LoadBytes + k.StoreBytes)
	dram := traffic * k.MissRate / coal
	mem := m.mem.DrainTimeNs(dram, m.core)
	if k.MemEff > 0 && k.MemEff < 1 {
		// Derate the bandwidth-proportional part for compiler quality,
		// leaving the leading-edge latency untouched.
		lat := mem - dram/m.mem.EffectiveBandwidthGBs(m.core)
		if dram > 0 {
			mem = lat + (mem-lat)/k.MemEff
		}
	}

	// LDS time.
	var lds float64
	if k.LDSBytes > 0 && d.LDSBandwidthGBs > 0 {
		ldsBW := d.LDSBandwidthGBs * float64(m.core) / float64(d.CoreClockMHz)
		lds = items * k.LDSBytes / ldsBW
	}

	// Instruction issue: each CU issues up to 1 wavefront instruction
	// per clock (GCN front end per SIMD every 4 clocks × 4 SIMDs).
	var issue float64
	if k.Instrs > 0 {
		waveInstrs := waveItems / float64(d.WavefrontSize) * k.Instrs
		width := d.IssuePerClock
		if width <= 0 {
			width = 1
		}
		issueRate := float64(d.ComputeUnits) * coreGHz * width // wave-instrs/ns
		issue = waveInstrs / issueRate / vec
	}

	launch := d.KernelLaunchOverheadUs * 1e3

	bound, tmax := "alu", alu
	if mem > tmax {
		bound, tmax = "mem", mem
	}
	if lds > tmax {
		bound, tmax = "lds", lds
	}
	if issue > tmax {
		bound, tmax = "issue", issue
	}

	total := tmax + launch

	// IPC: dynamic wavefront instructions per device cycle, normalized
	// per CU (matches the scale of Table I: 0.1–0.9).
	var ipc float64
	if total > 0 && k.Instrs > 0 {
		cycles := total * coreGHz // device cycles (ns × GHz)
		waveInstrs := waveItems / float64(d.WavefrontSize) * k.Instrs
		ipc = waveInstrs / cycles / float64(d.ComputeUnits)
	}

	return Result{
		TimeNs:    total,
		ALUNs:     alu,
		MemNs:     mem,
		LDSNs:     lds,
		IssueNs:   issue,
		LaunchNs:  launch,
		DRAMBytes: dram,
		Bound:     bound,
		IPC:       ipc,
	}
}
