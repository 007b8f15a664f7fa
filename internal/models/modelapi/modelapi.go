// Package modelapi defines the vocabulary shared by all programming-model
// runtimes — model names, kernel classes, compiler profiles (the
// calibrated per-compiler code-generation quality and data-management
// strategy) and the Figure 11 optimization-feature matrix — and the
// runtime core every model runtime embeds (Runtime): machine and profile
// binding, the corruption targets, the co-execution opt-in and the
// resilient launch driver the GPU runtimes share
// (Runtime.LaunchResilient). Runtimes price measured work: every launch
// takes per-item exec.Counters from a functional pass, so one pass serves
// every model × machine cell of a run.
package modelapi

import "fmt"

// Name identifies a programming model.
type Name string

// The models the paper compares, plus the Section VII successor.
const (
	OpenMP  Name = "OpenMP"
	OpenCL  Name = "OpenCL"
	CppAMP  Name = "C++ AMP"
	OpenACC Name = "OpenACC"
	HC      Name = "HC"
)

// All returns the GPU models in the paper's presentation order.
func All() []Name { return []Name{OpenCL, CppAMP, OpenACC} }

// KernelClass captures how demanding a kernel is on the code generator.
// The emerging models' compilers degrade as kernels get more irregular —
// the paper's central code-quality observation.
type KernelClass int

const (
	// Streaming kernels are unit-stride loops (read-benchmark, axpy).
	Streaming KernelClass = iota
	// Regular kernels have structured but non-trivial bodies (LULESH
	// node/element updates, FE assembly).
	Regular
	// Irregular kernels have data-dependent control flow or gathers
	// (CoMD force loops, XSBench lookups, SpMV).
	Irregular
)

// String names the kernel class.
func (k KernelClass) String() string {
	switch k {
	case Streaming:
		return "streaming"
	case Regular:
		return "regular"
	case Irregular:
		return "irregular"
	default:
		return fmt.Sprintf("KernelClass(%d)", int(k))
	}
}

// TransferStrategy describes how a runtime moves data to a discrete GPU.
type TransferStrategy int

const (
	// ExplicitTransfers: the programmer stages exactly what is needed,
	// when it is needed (OpenCL, HC).
	ExplicitTransfers TransferStrategy = iota
	// ViewSyncTransfers: array_view-style demand sync with conservative
	// write-back (C++ AMP): captured views copy in when host-dirty;
	// written views copy back at each synchronization point.
	ViewSyncTransfers
	// RegionCopyTransfers: directive-style region copies (OpenACC):
	// without an enclosing data region, every kernels region copies its
	// arrays in on entry and out on exit.
	RegionCopyTransfers
	// NoTransfers: host execution (OpenMP) or unified memory.
	NoTransfers
)

// String names the strategy.
func (t TransferStrategy) String() string {
	switch t {
	case ExplicitTransfers:
		return "explicit"
	case ViewSyncTransfers:
		return "view-sync"
	case RegionCopyTransfers:
		return "region-copy"
	case NoTransfers:
		return "none"
	default:
		return fmt.Sprintf("TransferStrategy(%d)", int(t))
	}
}

// Profile is the calibrated description of one model's compiler/runtime.
// Every constant here is either a paper-documented behaviour (strategies,
// fallbacks) or a calibration to a paper-measured ratio, annotated with
// its source.
type Profile struct {
	Name     Name
	Compiler string // Table III entry

	// Code-generation quality by kernel class: ALU vectorization
	// efficiency and achieved-bandwidth efficiency relative to
	// hand-tuned OpenCL.
	VecEff map[KernelClass]float64
	MemEff map[KernelClass]float64

	// ScalarFallback lists kernel classes whose loops this compiler
	// fails to map onto vector lanes at all (OpenACC on CoMD's force
	// loop: "the compiler's inability to expose vector-parallelism").
	// Affected kernels execute with a large serial fraction.
	ScalarFallback map[KernelClass]float64 // class → serial fraction

	Strategy TransferStrategy
}

// VecEffFor returns the ALU efficiency for a kernel class (default 1).
func (p *Profile) VecEffFor(c KernelClass) float64 {
	if v, ok := p.VecEff[c]; ok {
		return v
	}
	return 1
}

// MemEffFor returns the bandwidth efficiency for a kernel class (default 1).
func (p *Profile) MemEffFor(c KernelClass) float64 {
	if v, ok := p.MemEff[c]; ok {
		return v
	}
	return 1
}

// SerialFractionFor returns the scalar-fallback serial fraction (default 0).
func (p *Profile) SerialFractionFor(c KernelClass) float64 {
	return p.ScalarFallback[c]
}

// Profiles returns the calibrated profile set, keyed by model name.
//
// Calibration sources (paper Section VI):
//   - read-benchmark kernel-only times: OpenCL best; C++ AMP 1.3× slower,
//     OpenACC 2× slower (Fig 8a/9a discussion) → streaming MemEff
//     1/1.3≈0.77 and 1/2=0.5.
//   - CoMD: "OpenACC demonstrated the worst performance ... compiler's
//     inability to expose vector-parallelism" → Irregular scalar fallback;
//     "exposing parallelism in the form of tiles improved the performance
//     of CoMD by almost 3×" under C++ AMP → AMP supports LDS tiling.
//   - miniFE: "specialized sparse matrix operations cannot be easily
//     expressed ... compiler unable to recognize the complicated access
//     patterns" → OpenACC Irregular MemEff low.
func Profiles() map[Name]*Profile {
	return map[Name]*Profile{
		OpenMP: {
			Name:     OpenMP,
			Compiler: "GCC 4.8 -fopenmp (baseline)",
			VecEff:   map[KernelClass]float64{Streaming: 1, Regular: 0.9, Irregular: 0.7},
			MemEff:   map[KernelClass]float64{},
			Strategy: NoTransfers,
		},
		OpenCL: {
			Name:     OpenCL,
			Compiler: "AMD Catalyst driver v14.6",
			VecEff:   map[KernelClass]float64{Streaming: 1, Regular: 1, Irregular: 1},
			MemEff:   map[KernelClass]float64{Streaming: 1, Regular: 1, Irregular: 1},
			Strategy: ExplicitTransfers,
		},
		CppAMP: {
			Name:     CppAMP,
			Compiler: "CLAMP v0.6.0",
			VecEff:   map[KernelClass]float64{Streaming: 0.95, Regular: 0.85, Irregular: 0.75},
			MemEff:   map[KernelClass]float64{Streaming: 0.77, Regular: 0.8, Irregular: 0.8},
			Strategy: ViewSyncTransfers,
		},
		OpenACC: {
			Name:     OpenACC,
			Compiler: "PGI v14.10 with AMD Catalyst driver v14.6",
			VecEff:   map[KernelClass]float64{Streaming: 0.9, Regular: 0.7, Irregular: 0.5},
			MemEff:   map[KernelClass]float64{Streaming: 0.5, Regular: 0.6, Irregular: 0.35},
			ScalarFallback: map[KernelClass]float64{
				// CoMD-style neighbor loops: most of the inner loop
				// stays scalar.
				Irregular: 0.85,
			},
			Strategy: RegionCopyTransfers,
		},
		HC: {
			Name:     HC,
			Compiler: "HCC (prototype, Section VII)",
			VecEff:   map[KernelClass]float64{Streaming: 1, Regular: 0.95, Irregular: 0.9},
			MemEff:   map[KernelClass]float64{Streaming: 0.95, Regular: 0.95, Irregular: 0.9},
			Strategy: ExplicitTransfers,
		},
	}
}

// ProfileFor returns the calibrated profile for a model, or panics for an
// unknown name (a programming error: names are package constants).
func ProfileFor(n Name) *Profile {
	p, ok := Profiles()[n]
	if !ok {
		panic(fmt.Sprintf("modelapi: unknown model %q", n))
	}
	return p
}

// ProfileOn returns the profile adjusted for the executing machine's
// memory architecture. On unified-memory (HSA) machines two documented
// effects flip the irregular-kernel balance (the paper's XSBench-on-APU
// result, Section VI-A: "on architectures which do not impose data-
// transfer requirements, the emerging programming models generate better
// low-level code"):
//
//   - CLAMP on the HSA stack dereferences raw flat pointers, so its
//     gather-heavy kernels stop paying the array_view indirection —
//     irregular MemEff rises to 1.
//   - The Catalyst OpenCL path on the APU still routes random accesses
//     through buffer translation, costing irregular bandwidth (0.8).
func ProfileOn(n Name, unified bool) *Profile {
	p := ProfileFor(n)
	if !unified {
		return p
	}
	switch n {
	case CppAMP:
		p.MemEff[Irregular] = 1.0
		p.VecEff[Irregular] = 0.85
	case OpenCL:
		p.MemEff[Irregular] = 0.8
	}
	return p
}
