// Package readmem implements the paper's read-memory micro-benchmark
// (Section III, Figures 3–6): stream through a buffer summing blocks of 64
// contiguous elements and write each block's sum to an output buffer. It is
// the calibration workload — "an apt choice to understand the quality of
// code generation by the compilers" — and is memory-bandwidth bound.
//
// The input is a function of its index, so the functional pass computes
// each element where the kernel reads it and stores no input array; the
// priced runs still stage and stream the input as a device buffer.
//
// One implementation exists per programming model, each phrased in that
// model's idiom, all verified against the serial reference.
package readmem

import (
	"fmt"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/cppamp"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/models/openacc"
	"hetbench/internal/models/opencl"
	"hetbench/internal/models/openmp"
	"hetbench/internal/sim"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// BlockSize is the number of contiguous elements summed per output word
// ("The block size of 64 is used for our experiments").
const BlockSize = 64

// AppName identifies the benchmark in results.
const AppName = "read-benchmark"

// Config sizes one run.
type Config struct {
	// Blocks is the number of output elements; the input has
	// Blocks × BlockSize elements. The paper streams hundreds of MB; the
	// default harness size is 1<<18 blocks (128 MB in double precision).
	Blocks    int
	Precision timing.Precision
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if c.Blocks <= 0 {
		return fmt.Errorf("readmem: Blocks %d must be positive", c.Blocks)
	}
	return nil
}

// Problem is one instance. Input element i is element(i), so no pass
// stores the input: the kernel and the reference compute each element
// where they read it. Only the priced runs model the input, as the
// device buffer bytesIn sizes.
type Problem struct {
	Cfg Config
	// Memo, when set, shares the kernel spec with every problem of the
	// same Cfg on its characterization table, and the functional pass
	// with every problem of the same Blocks in the run; nil computes on
	// every call.
	Memo *appcore.Memo
}

// NewProblem validates cfg and returns its instance; there is no input
// to build.
func NewProblem(cfg Config) *Problem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Problem{Cfg: cfg}
}

// element is input element i.
func element(i int) float64 { return float64(i%17) * 0.25 }

// blockSum returns block b's sum of the input, adding element(i) in index
// order. It carries i%17 as a residue that wraps, instead of dividing
// once per element.
func blockSum(b int) float64 {
	sum := 0.0
	r := b * BlockSize % 17
	for j := 0; j < BlockSize; j++ {
		sum += float64(r) * 0.25
		if r++; r == 17 {
			r = 0
		}
	}
	return sum
}

// ReferenceSums computes the expected output serially (Figure 3a).
func (p *Problem) ReferenceSums() []float64 {
	out := make([]float64, p.Cfg.Blocks)
	for i := 0; i < p.Cfg.Blocks*BlockSize; i += BlockSize {
		sum := 0.0
		for j := 0; j < BlockSize; j++ {
			sum += element(i + j)
		}
		out[i/BlockSize] = sum
	}
	return out
}

// checksum digests an output vector.
func checksum(out []float64) float64 {
	s := 0.0
	for _, v := range out {
		s += v
	}
	return s
}

// specKey keys the kernel spec in a characterization table.
type specKey struct {
	cfg  Config
	geom appcore.Geometry
}

// spec builds the kernel spec with traits measured on the machine's
// accelerator LLC (a pure streaming pass), once per characterization
// table.
func (p *Problem) spec(m *sim.Machine) modelapi.KernelSpec {
	dev := m.Accelerator()
	return appcore.Characterize(p.Memo, specKey{p.Cfg, appcore.GeometryOf(dev)}, func() modelapi.KernelSpec {
		return p.measureSpec(dev)
	})
}

func (p *Problem) measureSpec(dev *device.Device) modelapi.KernelSpec {
	elt := int(appcore.EltBytes(p.Cfg.Precision))
	// Sampled trace: one pass over (a window of) the input.
	const sample = 1 << 16
	miss, coal, _ := appcore.Traits(dev, elt, func(touch func(uint64)) {
		for i := 0; i < sample; i++ {
			touch(uint64(i * elt))
		}
	})
	return modelapi.KernelSpec{Name: "read-blocksum", Class: modelapi.Streaming, MissRate: miss, Coalesce: coal}
}

// execute is the functional pass: one launch of the block-sum kernel
// (Figure 4b) into a fresh output vector, digested by its checksum.
func (p *Problem) execute(rec *appcore.Recorder) float64 {
	out := make([]float64, p.Cfg.Blocks)
	rec.Bind("read.out", out)
	rec.Launch(0, p.Cfg.Blocks, true, kernel(out))
	return checksum(out)
}

// kernel is the block-sum kernel writing out[b] for each block b. The
// tally charges BlockSize loads plus one store in each precision.
func kernel(out []float64) func(*exec.WorkItem) {
	per := appcore.PerView(1, func(prec timing.Precision) exec.Counters {
		elt := appcore.EltBytes(prec)
		sp, dp := appcore.Flops(prec, BlockSize)
		return exec.Counters{
			SPFlops: sp, DPFlops: dp,
			LoadBytes:  elt * BlockSize,
			StoreBytes: elt,
			Instrs:     2*BlockSize + 4,
		}
	})
	return exec.Uniform(per, func(b int) { out[b] = blockSum(b) })
}

// runKey keys the functional pass in a run memo: the input's size is all
// it reads, so both precisions share it.
type runKey struct{ blocks int }

// play books the run's one launch through launch and returns the checksum
// (see appcore.Play).
func (p *Problem) play(core *modelapi.Runtime, launch func(n int, per exec.Counters)) float64 {
	return appcore.Play(p.Memo, runKey{p.Cfg.Blocks}, appcore.View(p.Cfg.Precision, 0, 1), core, appcore.Pricer{
		Launch: func(_, n int, per exec.Counters) { launch(n, per) },
	}, p.execute)
}

func (p *Problem) bytesIn() int64 {
	return int64(p.Cfg.Blocks*BlockSize) * int64(appcore.EltBytes(p.Cfg.Precision))
}

func (p *Problem) bytesOut() int64 {
	return int64(p.Cfg.Blocks) * int64(appcore.EltBytes(p.Cfg.Precision))
}

// runOpenMP is the Figure 3b port: the serial loop plus one pragma.
func (p *Problem) runOpenMP(m *sim.Machine) appcore.Result {
	rt := openmp.New(m)
	spec := p.spec(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, n, per) })
	return appcore.NewResult(m, AppName, modelapi.OpenMP, p.Cfg.Precision, sum, 1)
}

// runOpenCL is the Figure 4 implementation: explicit buffers, staging and
// an NDRange launch.
func (p *Problem) runOpenCL(m *sim.Machine) appcore.Result {
	ctx := opencl.NewContext(m)
	q := ctx.NewQueue()
	bufIn := ctx.CreateBuffer("read.in", p.bytesIn())
	bufOut := ctx.CreateBuffer("read.out", p.bytesOut())
	q.EnqueueWriteBuffer(bufIn)
	spec := p.spec(m)
	sum := p.play(ctx.Runtime, func(n int, per exec.Counters) { q.Launch(spec, n, per, bufIn, bufOut) })
	q.EnqueueReadBuffer(bufOut)
	q.Finish()
	return appcore.NewResult(m, AppName, modelapi.OpenCL, p.Cfg.Precision, sum, 1)
}

// runCppAMP is the Figure 6 implementation: array_views and a
// parallel_for_each over a tiled extent.
func (p *Problem) runCppAMP(m *sim.Machine) appcore.Result {
	rt := cppamp.New(m)
	avIn := rt.NewArrayView("read.in", p.bytesIn())
	avOut := rt.NewArrayView("read.out", p.bytesOut())
	views := []*cppamp.ArrayView{avIn, avOut}
	spec := p.spec(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, cppamp.NewExtent(n), views, per) })
	avOut.Synchronize()
	return appcore.NewResult(m, AppName, modelapi.CppAMP, p.Cfg.Precision, sum, 1)
}

// runOpenACC is the Figure 5 implementation: a kernels-loop with the
// paper's exact clauses — `gang(size/BLOCKSIZE) vector(BLOCKSIZE)` — and
// data movement left to the compiler.
func (p *Problem) runOpenACC(m *sim.Machine) appcore.Result {
	rt := openacc.New(m)
	uses := []openacc.Clause{
		openacc.Copyin("read.in", p.bytesIn()),
		openacc.Copyout("read.out", p.bytesOut()),
	}
	gang := (p.Cfg.Blocks + BlockSize - 1) / BlockSize
	spec := p.spec(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.LaunchGV(spec, n, gang, BlockSize, uses, per) })
	return appcore.NewResult(m, AppName, modelapi.OpenACC, p.Cfg.Precision, sum, 1)
}

// ports are the models Run dispatches to.
var ports = map[modelapi.Name]func(*Problem, *sim.Machine) appcore.Result{
	modelapi.OpenMP:  (*Problem).runOpenMP,
	modelapi.OpenCL:  (*Problem).runOpenCL,
	modelapi.CppAMP:  (*Problem).runCppAMP,
	modelapi.OpenACC: (*Problem).runOpenACC,
}

// Run runs the benchmark under model on m inside one run span (see
// appcore.Run).
func (p *Problem) Run(m *sim.Machine, model modelapi.Name) appcore.Result {
	return appcore.Run(m, AppName, model, p, ports)
}
