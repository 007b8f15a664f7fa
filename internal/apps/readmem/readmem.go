// Package readmem implements the paper's read-memory micro-benchmark
// (Section III, Figures 3–6): stream through a buffer summing blocks of 64
// contiguous elements and write each block's sum to an output buffer. It is
// the calibration workload — "an apt choice to understand the quality of
// code generation by the compilers" — and is memory-bandwidth bound.
//
// One implementation exists per programming model, each phrased in that
// model's idiom, all verified against the serial reference.
package readmem

import (
	"fmt"
	"sync"

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

// Problem is a generated instance. NewProblem builds its input; a
// Problem literal with Cfg (and Memo) set builds it on first need, so a
// run whose kernel spec and functional pass both hit the run memo never
// builds one.
type Problem struct {
	Cfg Config
	In  []float64
	// Memo, when set, shares the kernel spec with every problem of the
	// same Cfg in the run, and the functional pass with every problem of
	// the same Blocks; nil computes on every call.
	Memo *appcore.Memo

	build sync.Once
}

// NewProblem builds a deterministic instance.
func NewProblem(cfg Config) *Problem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Problem{Cfg: cfg}
	p.input()
	return p
}

// input returns the input buffer, building it on first need.
func (p *Problem) input() []float64 {
	p.build.Do(func() {
		if p.In != nil {
			return
		}
		p.In = make([]float64, p.Cfg.Blocks*BlockSize)
		for i := range p.In {
			p.In[i] = float64(i%17) * 0.25
		}
	})
	return p.In
}

// ReferenceSums computes the expected output serially (Figure 3a).
func (p *Problem) ReferenceSums() []float64 {
	in := p.input()
	out := make([]float64, p.Cfg.Blocks)
	for i := 0; i < len(in); i += BlockSize {
		sum := 0.0
		for j := 0; j < BlockSize; j++ {
			sum += in[i+j]
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

// specKey keys the kernel spec in a run memo.
type specKey struct {
	cfg  Config
	geom appcore.Geometry
}

// spec builds the kernel spec with traits measured on the machine's
// accelerator LLC (a pure streaming pass), once per run memo.
func (p *Problem) spec(m *sim.Machine) modelapi.KernelSpec {
	dev := m.Accelerator()
	return appcore.Memoize(p.Memo, specKey{p.Cfg, appcore.GeometryOf(dev)}, func() modelapi.KernelSpec {
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
// (Figure 4b) into a fresh output vector, digested by its checksum. The
// tally charges BlockSize loads plus one store in each precision.
func (p *Problem) execute(rec *appcore.Recorder) float64 {
	in := p.input()
	out := make([]float64, p.Cfg.Blocks)
	rec.Bind("read.out", out)
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
	rec.Launch(0, p.Cfg.Blocks, true, exec.Uniform(per, func(b int) {
		sum := 0.0
		st := b * BlockSize
		for j := 0; j < BlockSize; j++ {
			sum += in[st+j]
		}
		out[b] = sum
	}))
	return checksum(out)
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

func (p *Problem) result(m *sim.Machine, model modelapi.Name, sum float64) appcore.Result {
	return appcore.Result{
		App: AppName, Model: model, Machine: m.Name(), Precision: p.Cfg.Precision,
		ElapsedNs: m.ElapsedNs(), KernelNs: m.KernelNs(), TransferNs: m.TransferNs(), FaultNs: m.FaultNs(),
		Checksum: sum, Kernels: 1,
	}
}

// RunOpenMP is the Figure 3b port: the serial loop plus one pragma.
func (p *Problem) RunOpenMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := openmp.New(m)
	spec := p.spec(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, n, per) })
	return p.result(m, modelapi.OpenMP, sum)
}

// RunOpenCL is the Figure 4 implementation: explicit buffers, staging and
// an NDRange launch.
func (p *Problem) RunOpenCL(m *sim.Machine) appcore.Result {
	m.ResetClock()
	ctx := opencl.NewContext(m).WithCoexec()
	q := ctx.NewQueue()
	bufIn := ctx.CreateBuffer("read.in", p.bytesIn())
	bufOut := ctx.CreateBuffer("read.out", p.bytesOut())
	q.EnqueueWriteBuffer(bufIn)
	spec := p.spec(m)
	sum := p.play(ctx.Runtime, func(n int, per exec.Counters) { q.Launch(spec, n, per, bufIn, bufOut) })
	q.EnqueueReadBuffer(bufOut)
	q.Finish()
	return p.result(m, modelapi.OpenCL, sum)
}

// RunCppAMP is the Figure 6 implementation: array_views and a
// parallel_for_each over a tiled extent.
func (p *Problem) RunCppAMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := cppamp.New(m).WithCoexec()
	avIn := rt.NewArrayView("read.in", p.bytesIn())
	avOut := rt.NewArrayView("read.out", p.bytesOut())
	views := []*cppamp.ArrayView{avIn, avOut}
	spec := p.spec(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, cppamp.NewExtent(n), views, per) })
	avOut.Synchronize()
	return p.result(m, modelapi.CppAMP, sum)
}

// RunOpenACC is the Figure 5 implementation: a kernels-loop with the
// paper's exact clauses — `gang(size/BLOCKSIZE) vector(BLOCKSIZE)` — and
// data movement left to the compiler.
func (p *Problem) RunOpenACC(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := openacc.New(m).WithCoexec()
	uses := []openacc.Clause{
		openacc.Copyin("read.in", p.bytesIn()),
		openacc.Copyout("read.out", p.bytesOut()),
	}
	gang := (p.Cfg.Blocks + BlockSize - 1) / BlockSize
	spec := p.spec(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.LaunchGV(spec, n, gang, BlockSize, uses, per) })
	return p.result(m, modelapi.OpenACC, sum)
}

// Run dispatches by model name.
func (p *Problem) Run(m *sim.Machine, model modelapi.Name) (r appcore.Result) {
	m.ResetClock()
	m.InRun(AppName+"/"+string(model), func() {
		switch model {
		case modelapi.OpenMP:
			r = p.RunOpenMP(m)
		case modelapi.OpenCL:
			r = p.RunOpenCL(m)
		case modelapi.CppAMP:
			r = p.RunCppAMP(m)
		case modelapi.OpenACC:
			r = p.RunOpenACC(m)
		default:
			panic(fmt.Sprintf("readmem: no implementation for %s", model))
		}
	})
	return r
}
