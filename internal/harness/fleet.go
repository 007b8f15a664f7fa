package harness

import (
	"context"
	"fmt"
	"io"

	"hetbench/internal/fault"
	"hetbench/internal/fleet"
	"hetbench/internal/harness/runner"
	"hetbench/internal/report"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
)

// fleetPolicies is the placement-policy sweep: the same three policies
// the in-machine co-execution scheduler offers, applied at cluster
// granularity.
var fleetPolicies = []sched.Policy{sched.Static, sched.Dynamic, sched.HGuided}

// FleetLoads is the arrival-rate sweep, expressed as a fraction of the
// fleet's nominal capacity (fleet.CapacityPerSec): a comfortable load
// and a near-saturation one where queueing dominates the tail.
var FleetLoads = []float64{0.5, 0.9}

// fleetShapes is the arrival-process sweep.
var fleetShapes = []fleet.Shape{fleet.Poisson, fleet.Bursty}

// fleetJobMix is the job-class blend every fleet trace draws from:
// streaming-heavy with compute and irregular minorities, so APU and dGPU
// nodes each have jobs they win.
var fleetJobMix = fleet.JobMix{Stream: 2, Compute: 1, Irregular: 1}

// FleetMix is one fleet composition in the sweep.
type FleetMix struct {
	Name        string
	APUs, DGPUs int
}

// fleetMixes scales two compositions — integrated-heavy and balanced —
// from 4 nodes at smoke scale to 512 at paper scale.
func fleetMixes(scale Scale) []FleetMix {
	mult := map[Scale]int{ScaleSmoke: 1, ScaleSmall: 4, ScaleDefault: 16, ScalePaper: 128}[scale]
	if mult == 0 {
		mult = 16
	}
	return []FleetMix{
		{"apu-heavy", 3 * mult, 1 * mult},
		{"balanced", 2 * mult, 2 * mult},
	}
}

// fleetJobCount sizes the traces per scale: long enough that steady
// state dominates warmup, short enough that smoke runs finish instantly.
func fleetJobCount(scale Scale) int {
	switch scale {
	case ScaleSmoke:
		return 120
	case ScaleSmall:
		return 1200
	case ScalePaper:
		return 40000
	default:
		return 6000
	}
}

// FleetCell is one (mix, shape, load, policy) cell of the fleet sweep.
type FleetCell struct {
	Mix        string
	Nodes      int
	Shape      fleet.Shape
	Load       float64
	RatePerSec float64
	Policy     sched.Policy
	Result     fleet.Result
}

// fleetNewMachine adapts the cell context into the fleet's machine
// factory so every node's machine attaches to the cell's capture tracer
// (when one is active) exactly like single-machine experiments do.
func fleetNewMachine(cx *runner.Ctx) func(fleet.NodeKind) *sim.Machine {
	return func(k fleet.NodeKind) *sim.Machine {
		if k == fleet.DGPU {
			return cx.Machine(sim.NewDGPU)
		}
		return cx.Machine(sim.NewAPU)
	}
}

// fleetConfig assembles a cluster config bound to the cell's tracer.
func fleetConfig(cx *runner.Ctx, mix FleetMix, policy sched.Policy, seed int64, lossRate float64) fleet.Config {
	cfg := fleet.Config{
		APUs: mix.APUs, DGPUs: mix.DGPUs,
		Policy:         policy,
		Seed:           seed,
		DeviceLossRate: lossRate,
		NewMachine:     fleetNewMachine(cx),
	}
	if tr := cx.Machine(sim.NewAPU).Tracer(); tr != nil {
		cfg.Metrics = tr.Metrics()
	}
	return cfg
}

// FleetSweepData runs the arrival-rate × placement-policy × fleet-mix
// sweep. One runner cell per (mix, shape, load) point: the three
// policies inside a cell share one trace and one seed, so they face the
// identical job stream and fault environment and differ only in
// placement.
func FleetSweepData(ctx context.Context, scale Scale) ([]FleetCell, error) {
	mixes := fleetMixes(scale)
	nShapes, nLoads := len(fleetShapes), len(FleetLoads)
	cells := len(mixes) * nShapes * nLoads
	groups, err := runner.Map(ctx, "fleet", cells, func(cx *runner.Ctx, ci int) []FleetCell {
		mix := mixes[ci/(nShapes*nLoads)]
		shape := fleetShapes[(ci/nLoads)%nShapes]
		load := FleetLoads[ci%nLoads]
		seed := fault.SubSeed(SeedOf(cx.Context()), int64(100+ci))
		rate := load * fleet.CapacityPerSec(mix.APUs, mix.DGPUs, fleetJobMix)
		jobs := fleet.Generate(fleet.TraceSpec{
			Shape: shape, Jobs: fleetJobCount(scale), RatePerSec: rate,
			Mix: fleetJobMix, Seed: seed,
		})
		out := make([]FleetCell, 0, len(fleetPolicies))
		for _, policy := range fleetPolicies {
			r := fleet.New(fleetConfig(cx, mix, policy, seed, 0)).Run(jobs)
			out = append(out, FleetCell{
				Mix: mix.Name, Nodes: mix.APUs + mix.DGPUs,
				Shape: shape, Load: load, RatePerSec: rate,
				Policy: policy, Result: r,
			})
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	out := make([]FleetCell, 0, cells*len(fleetPolicies))
	for _, g := range groups {
		out = append(out, g...)
	}
	return out, nil
}

// FleetLossRates is the device-loss sweep: a fault-free control, a
// noticeable rate and a hostile one.
var FleetLossRates = []float64{0, 0.02, 0.05}

// FleetFaultCell is one row of the device-loss table: the balanced fleet
// under dynamic placement at one loss rate.
type FleetFaultCell struct {
	LossRate float64
	Result   fleet.Result
}

// FleetFaultsData sweeps device-loss rates on the balanced fleet at 0.7
// load under dynamic placement. All three cells share the trace seed, so
// the job stream is identical and only the fault draws differ.
func FleetFaultsData(ctx context.Context, scale Scale) ([]FleetFaultCell, error) {
	mix := fleetMixes(scale)[1] // balanced
	njobs := fleetJobCount(scale)
	groups, err := runner.Map(ctx, "fleet-faults", len(FleetLossRates), func(cx *runner.Ctx, fi int) []FleetFaultCell {
		seed := fault.SubSeed(SeedOf(cx.Context()), 500)
		rate := 0.7 * fleet.CapacityPerSec(mix.APUs, mix.DGPUs, fleetJobMix)
		jobs := fleet.Generate(fleet.TraceSpec{
			Shape: fleet.Poisson, Jobs: njobs, RatePerSec: rate,
			Mix: fleetJobMix, Seed: seed,
		})
		r := fleet.New(fleetConfig(cx, mix, sched.Dynamic, seed, FleetLossRates[fi])).Run(jobs)
		return []FleetFaultCell{{LossRate: FleetLossRates[fi], Result: r}}
	})
	if err != nil {
		return nil, err
	}
	out := make([]FleetFaultCell, 0, len(FleetLossRates))
	for _, g := range groups {
		out = append(out, g...)
	}
	return out, nil
}

// RunFleet is the fleet experiment: cluster-scale load balancing with
// tail latency and utilization as the first-class outputs, plus the
// device-loss migration table.
func RunFleet(ctx context.Context, scale Scale, w io.Writer) error {
	sweep, err := FleetSweepData(ctx, scale)
	if err != nil {
		return err
	}
	faults, err := FleetFaultsData(ctx, scale)
	if err != nil {
		return err
	}
	mixes := fleetMixes(scale)
	fmt.Fprintf(w, "Simulated fleets of mixed APU/dGPU nodes (%s: %d nodes, %s: %d) under seeded open-loop\n",
		mixes[0].Name, mixes[0].APUs+mixes[0].DGPUs, mixes[1].Name, mixes[1].APUs+mixes[1].DGPUs)
	fmt.Fprintf(w, "arrival traces of %d jobs (seed %d, mix stream:compute:irregular = 2:1:1). Load is the\n",
		fleetJobCount(scale), SeedOf(ctx))
	fmt.Fprintln(w, "arrival rate as a fraction of nominal fleet capacity; policies place whole jobs across")
	fmt.Fprintln(w, "nodes with the same rules the in-machine scheduler uses to place chunks across devices.")
	fmt.Fprintln(w)

	t := report.NewTable("Fleet sweep",
		"Mix", "Shape", "Load", "Policy", "p50 ms", "p95 ms", "p99 ms", "Queue p99 ms", "Util", "Shed")
	for _, c := range sweep {
		r := c.Result
		t.AddRowf(c.Mix, c.Shape.String(),
			fmt.Sprintf("%.1f", c.Load),
			c.Policy.String(),
			fmt.Sprintf("%.2f", r.Sojourn.Quantile(0.50)/1e6),
			fmt.Sprintf("%.2f", r.Sojourn.Quantile(0.95)/1e6),
			fmt.Sprintf("%.2f", r.Sojourn.Quantile(0.99)/1e6),
			fmt.Sprintf("%.2f", r.Queue.Quantile(0.99)/1e6),
			fmt.Sprintf("%.0f%%", 100*r.MeanUtil()),
			r.Shed)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Static placement fixes each node's share up front, so bursty arrivals and mixed job")
	fmt.Fprintln(w, "costs land on whichever node the round-robin reaches next — the tail pays for it.")
	fmt.Fprintln(w, "Dynamic places by predicted finish and HGuided by learned per-node throughput; both")
	fmt.Fprintln(w, "route bandwidth-bound jobs away from PCIe-staged dGPU nodes and flop-bound jobs onto")
	fmt.Fprintln(w, "them, the cluster-scale version of the paper's co-execution affinity.")
	fmt.Fprintln(w)

	ft := report.NewTable("Device loss and migration (balanced fleet, dynamic placement, load 0.7)",
		"Loss rate", "Submitted", "Completed", "Shed", "Migrated", "Losses", "Wasted ms", "Mean ms", "p99 ms")
	for _, c := range faults {
		r := c.Result
		wasted := 0.0
		for _, n := range r.Nodes {
			wasted += n.WastedNs
		}
		ft.AddRowf(fmt.Sprintf("%.2f", c.LossRate),
			r.Submitted, r.Completed, r.Shed, r.Migrated, r.NodeLosses,
			fmt.Sprintf("%.3f", wasted/1e6),
			fmt.Sprintf("%.2f", r.Sojourn.Mean()/1e6),
			fmt.Sprintf("%.2f", r.Sojourn.Quantile(0.99)/1e6))
	}
	if _, err := ft.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "A lost node evicts its queued and in-flight jobs; the balancer rebooks them on the")
	fmt.Fprintln(w, "survivors (abandoning any partial service as wasted time), so device loss degrades")
	fmt.Fprintln(w, "latency instead of losing work: every admitted job completes at every loss rate.")
	return nil
}
