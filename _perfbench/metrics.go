package main

import (
	"math"
	"sort"
	"time"
)

// metric is one number the benchmark reports. End-to-end metrics carry
// the bound by which they may worsen before a change counts as a
// regression; per-layer metrics instead name the end-to-end metric and
// workload they are expected to move.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse. Zero for per-layer metrics.
	Bound float64

	// Layer is the module a per-layer metric measures; Target and
	// Workload name the end-to-end metric and workload it should move.
	Layer    string
	Target   string
	Workload string
}

// Workload names.
const (
	wlSweep   = "sweep"
	wlService = "service"
	wlLint    = "lint"
)

// workloads lists every workload with the reason it exists.
var workloads = []struct{ Name, Why string }{
	{wlSweep, "six fig9/coexec/faults/perfbaseline/dag/fleet runs at small scale, each a fresh hetbench process: apps, models, sim, runner, sched, fault, workload, fleet"},
	{wlService, "two closed-loop clients on an in-process hetbenchd: ~95% cache hits on a warm smoke-scale set, ~5% fresh-seed misses, some sent by both at once"},
	{wlLint, "one hetlint ./... pass over the tree with all nine analyzers; only analysis runs, so it is the control for simulator and service changes"},
}

// endToEnd are the metrics a user of hetbench sees, reported by every
// workload with tracing off.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// Experiments one sweep op regenerates, the subset whose runner stats
// the traced run reads, and the applications and models the layer
// probes drive.
var (
	sweepExps  = []string{"fig9", "coexec", "faults", "perfbaseline", "dag", "fleet"}
	runnerExps = []string{"fig9", "coexec", "faults", "perfbaseline"}
	appKeys    = []string{"readmem", "lulesh", "comd", "xsbench", "minife"}
	charKeys   = []string{"lulesh", "comd", "xsbench", "minife"}
	modelKeys  = []string{"openmp", "opencl", "cppamp", "openacc"}
	coexecKeys = []string{"readmem", "lulesh", "minife"}
	// eventCounters are the sweep's exact per-op event counts beyond the
	// launches and transfers the sim layer reports.
	eventCounters = []string{"sched.chunks", "sched.dag.kernels", "workload.kernels", "fleet.jobs.completed", "resilience.retries"}
	analyzerKeys  = []string{"detnondet", "spanleak", "launchcheck", "counterkey", "ctxflow", "seedflow", "wallclock", "goroexit", "lockbalance"}
)

// perLayer are the metrics the traced run reports, in output order.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var ms []metric
	add := func(layer, name, unit, better, target, wl string) {
		ms = append(ms, metric{Name: name, Unit: unit, Better: better, Layer: layer, Target: target, Workload: wl})
	}
	each := func(keys []string, layer, prefix, unit, better, target, wl string) {
		for _, k := range keys {
			add(layer, prefix+k, unit, better, target, wl)
		}
	}
	each(sweepExps, "harness", "harness.exp_ms.", "ms", "lower", "op_ms", wlSweep)
	each(runnerExps, "harness/runner", "runner.busy_share.", "ratio", "higher", "op_ms", wlSweep)
	each(runnerExps, "harness/runner", "runner.cell_max_ms.", "ms", "lower", "op_ms", wlSweep)
	each(appKeys, "apps", "apps.setup_ms.", "ms", "lower", "cpu_ms_per_op", wlSweep)
	each(charKeys, "apps", "apps.characterize_ms.", "ms", "lower", "cpu_ms_per_op", wlSweep)
	each(appKeys, "apps", "apps.run_ms.", "ms", "lower", "cpu_ms_per_op", wlSweep)
	each(modelKeys, "models", "models.run_ms.", "ms", "lower", "op_ms", wlSweep)
	each([]string{"stream", "random"}, "sim", "sim.cache.ns_per_access.", "ns", "lower", "cpu_ms_per_op", wlSweep)
	add("sim", "sim.kernel_launches", "count", "lower", "cpu_ms_per_op", wlSweep)
	add("sim", "sim.transfers", "count", "lower", "cpu_ms_per_op", wlSweep)
	add("sim", "sim.host_ns_per_launch", "ns", "lower", "cpu_ms_per_op", wlSweep)
	each(eventCounters, "sim", "events.", "count", "lower", "cpu_ms_per_op", wlSweep)
	add("trace", "trace.overhead_share", "ratio", "lower", "op_ms", wlSweep)
	each(coexecKeys, "sched", "sched.coexec_ms.", "ms", "lower", "op_ms", wlSweep)
	add("sched", "sched.chunks", "count", "lower", "op_ms", wlSweep)
	add("workload", "workload.execute_ms", "ms", "lower", "op_ms", wlSweep)
	add("fleet", "fleet.run_ms", "ms", "lower", "op_ms", wlSweep)
	add("fault", "fault.overhead_share", "ratio", "lower", "op_ms", wlSweep)
	add("fault", "fault.retries", "count", "lower", "op_ms", wlSweep)

	add("service", "service.do_hit_us", "us", "lower", "op_ms", wlService)
	add("service", "service.http_hit_us", "us", "lower", "op_ms", wlService)
	add("service", "service.hit_p50_ms", "ms", "lower", "op_ms", wlService)
	add("service", "service.hit_p99_ms", "ms", "lower", "op_ms", wlService)
	add("service", "service.server_p50_ms", "ms", "lower", "op_ms", wlService)
	add("service", "service.server_p99_ms", "ms", "lower", "op_ms", wlService)
	add("service", "service.miss_p50_ms", "ms", "lower", "ops_per_s", wlService)
	add("service", "service.miss_p90_ms", "ms", "lower", "ops_per_s", wlService)
	add("service", "service.miss_pair_same_seed_ms", "ms", "lower", "ops_per_s", wlService)
	add("service", "service.miss_pair_cross_seed_ms", "ms", "lower", "ops_per_s", wlService)
	add("service", "service.dedup_join_ms", "ms", "lower", "ops_per_s", wlService)
	add("service", "service.hit_share", "ratio", "higher", "ops_per_s", wlService)
	add("service", "service.dedup_joined", "count", "higher", "ops_per_s", wlService)
	add("service", "service.shed", "count", "lower", "ops_per_s", wlService)
	add("service", "service.errors", "count", "lower", "ops_per_s", wlService)
	add("service", "service.evictions", "count", "lower", "ops_per_s", wlService)

	add("analysis", "lint.load_ms", "ms", "lower", "op_ms", wlLint)
	add("analysis", "lint.analyze_ms", "ms", "lower", "op_ms", wlLint)
	each(analyzerKeys, "analysis", "lint.analyzer_ms.", "ms", "lower", "op_ms", wlLint)
	add("analysis", "lint.packages", "count", "lower", "op_ms", wlLint)
	add("analysis", "lint.go_lines", "count", "lower", "op_ms", wlLint)
	add("analysis", "lint.findings", "count", "lower", "op_ms", wlLint)

	add("bench", "bench.trace_slowdown", "ratio", "lower", "op_ms", wlSweep)
	return ms
}

// ---------------------------------------------------------------------
// Sample statistics.

// quantile returns the q-quantile of xs by the nearest-rank rule; NaN
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle sample, or the mean of the two middle ones; NaN
// for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the candidate tail percentiles, highest first, in
// hundredths of a percent.
var tailLadder = []int{9999, 9990, 9900, 9000, 5000}

// minBeyond is how many samples a reported percentile needs above it.
const minBeyond = 10

// tailPercentile picks the highest percentile of the ladder that has at
// least minBeyond of n samples beyond it, in percent; 0 when even the
// median has too few.
func tailPercentile(n int) float64 {
	for _, bp := range tailLadder {
		if n*(10000-bp)/10000 >= minBeyond {
			return float64(bp) / 100
		}
	}
	return 0
}

// summary summarizes one set of duration samples for the report table.
type summary struct {
	N      int
	Median float64
	TailP  float64 // percentile chosen by tailPercentile; 0 if none
	Tail   float64
}

func summarize(xs []float64) summary {
	t := summary{N: len(xs), Median: median(xs), TailP: tailPercentile(len(xs))}
	if t.TailP > 0 {
		t.Tail = quantile(xs, t.TailP/100)
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// measure runs op at least once, and again while one more op, as long as
// the longest so far, would still end within d. It returns the time the
// ops took, so a run's length stays close to d whatever the op costs.
func measure(d time.Duration, op func()) time.Duration {
	start := time.Now()
	var longest time.Duration
	for {
		t0 := time.Now()
		op()
		longest = max(longest, time.Since(t0))
		if time.Since(start)+longest > d {
			return time.Since(start)
		}
	}
}
