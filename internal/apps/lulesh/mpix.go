package lulesh

import (
	"fmt"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/mpix"
	"hetbench/internal/models/opencl"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

// MPIXResult summarizes a multi-node MPI+OpenCL run.
type MPIXResult struct {
	Ranks int
	// ElapsedNs is the job's elapsed (slowest-rank) time.
	ElapsedNs float64
	// ComputeNs and CommNs split one rank's time.
	ComputeNs, CommNs float64
	// HaloBytes is the payload of one face exchange.
	HaloBytes int64
}

// runMPIX strong-scales the Sedov problem across the cluster with a slab
// decomposition along z — the MPI half of the paper's "MPI+X": each rank
// runs the 28 X-model kernels on its S×S×(S/P) slab, exchanges one ghost
// layer with its face neighbors each timestep, and joins the global
// minimum-timestep allreduce.
//
// Per-rank kernel time comes from repricing the global problem's
// one-step functional pass through an OpenCL queue on a dGPU at 1/P of
// each launch's items (the kernels are element- or node-parallel, so the
// split is exact up to the surface layers); communication is simulated
// message by message on the cluster fabric.
func (p *Problem) runMPIX(c *mpix.Cluster) MPIXResult {
	ranks := c.Size()
	if p.Cfg.S%ranks != 0 && ranks > 1 {
		panic(fmt.Sprintf("lulesh: S=%d not divisible into %d slabs", p.Cfg.S, ranks))
	}

	fnCfg := p.Cfg
	fnCfg.Iters, fnCfg.FunctionalIters = 1, 1
	fn := &Problem{Cfg: fnCfg, Precision: p.Precision, Mesh: p.Mesh, Memo: p.Memo}
	iter := sim.NewDGPU()
	ctx := opencl.NewContext(iter)
	q := ctx.NewQueue()
	specs := fn.specs(iter)
	fn.play(ctx.Runtime, appcore.Pricer{
		Launch: func(k, n int, per exec.Counters) { q.Launch(specs[k], (n+ranks-1)/ranks, per) },
	})
	iterNs := iter.KernelNs()

	// Ghost layer per face: coordinates + velocities for one node plane
	// plus the q-gradient element plane.
	elt := int64(appcore.EltBytes(p.Precision))
	np := int64(p.Cfg.S + 1)
	haloBytes := 6*np*np*elt + 3*int64(p.Cfg.S)*int64(p.Cfg.S)*elt

	var compute, comm float64
	for it := 0; it < p.Cfg.Iters; it++ {
		before := c.MaxTimeNs()
		for r := 0; r < ranks; r++ {
			c.Rank(r).AdvanceNs(iterNs)
		}
		afterCompute := c.MaxTimeNs()
		// Face exchanges between slab neighbors (non-periodic), in the
		// standard two concurrent phases: even↔odd pairs first, then
		// odd↔even — every rank joins at most one exchange per phase,
		// so the cost does not grow with the rank count.
		for phase := 0; phase < 2; phase++ {
			for r := phase; r+1 < ranks; r += 2 {
				c.Sendrecv(r, r+1, haloBytes)
			}
		}
		// Global dt reduction.
		c.Allreduce(elt)
		after := c.MaxTimeNs()
		compute += afterCompute - before
		comm += after - afterCompute
	}

	return MPIXResult{
		Ranks:     ranks,
		ElapsedNs: c.MaxTimeNs(),
		ComputeNs: compute,
		CommNs:    comm,
		HaloBytes: haloBytes,
	}
}

// Efficiency returns the strong-scaling parallel efficiency of r against
// the single-rank reference: T(1) / (P · T(P)).
func (r MPIXResult) Efficiency(single MPIXResult) float64 {
	if r.ElapsedNs <= 0 || single.ElapsedNs <= 0 {
		return 0
	}
	return single.ElapsedNs / (float64(r.Ranks) * r.ElapsedNs)
}

// CommFraction returns the communication share of the run.
func (r MPIXResult) CommFraction() float64 {
	total := r.ComputeNs + r.CommNs
	if total <= 0 {
		return 0
	}
	return r.CommNs / total
}

// StrongScaling runs the problem at every rank count and returns the
// results (the harness `scaling` experiment).
func (p *Problem) StrongScaling(rankCounts []int, fabric mpix.Fabric) []MPIXResult {
	var out []MPIXResult
	for _, n := range rankCounts {
		c := mpix.NewCluster(n, fabric)
		out = append(out, p.runMPIX(c))
	}
	return out
}

// idealSpeedup is a helper for reports: T(1)/T(P).
func idealSpeedup(results []MPIXResult, i int) float64 {
	if len(results) == 0 || results[0].ElapsedNs == 0 || results[i].ElapsedNs == 0 {
		return 0
	}
	return results[0].ElapsedNs / results[i].ElapsedNs
}

// Speedups returns T(1)/T(P) for each entry relative to the first.
func Speedups(results []MPIXResult) []float64 {
	out := make([]float64, len(results))
	for i := range results {
		out[i] = idealSpeedup(results, i)
	}
	return out
}
