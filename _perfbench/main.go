// Command perfbench is hetbench's benchmark: it measures what users of
// the repository pay in host time, end to end and layer by layer. The
// simulator regenerates the paper's OpenCL / C++ AMP / OpenACC comparison
// in virtual time, so the costs a user sees are the wall time of a
// figure sweep, the latency of a hetbenchd request and the time of a
// hetlint pass. Run it from the repository root through its launcher,
// which builds everything from the checkout's sources first:
//
//	bash _perfbench/run.sh --workload sweep|service|lint --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it print every
// metric with its unit and sample count, the median and the highest
// percentile that has at least ten samples beyond it, and the run
// conditions (Go version, nproc, GOMAXPROCS, the worker count used, and
// the share of CPU time the VM lost to steal over the run). Conditions
// are reported beside the result, never as metrics: they tell a noisy
// run apart from a slow change.
//
// # Workloads
//
// Every workload pins its worker count to nproc (runner workers in the
// sweep and the service, analyzer workers in lint), so an inherited
// HETBENCH_JOBS cannot change the schedule being measured.
//
//   - sweep: one op regenerates fig9, coexec, faults, perfbaseline, dag
//     and fleet at -scale small with -seed taken from the workload seed,
//     each in a fresh hetbench process, as users run them. App set-up,
//     cache characterization, functional kernels, the four model
//     runtimes, runner scheduling, co-execution splits, fault recovery
//     and the DAG and fleet simulators do nearly all their work here.
//     Fresh processes mean no op reuses what an earlier op computed, so
//     a memo only counts if it helps within one invocation. Every op's
//     stdout must equal, byte for byte, a -jobs 1 reference made twice in
//     set-up (the two must agree too).
//   - service: hetbenchd in-process (service.New defaults, Handler on a
//     loopback server) with two closed-loop clients, each waiting for its
//     reply before sending the next request. A seeded script sends about
//     95% hits on a pre-filled warm set of smoke-scale keys (outputs from
//     table3 up to fig9 in size) and about 5% misses under fresh seeds,
//     some sent by both clients at once for the same key, so the cache,
//     dedup, admission and the seed gate all work. It is the only
//     workload on the cache, JSON and HTTP path, and it drives the runner
//     and app layers as many short concurrent runs in one long-lived
//     process. Every hit's Output must equal the cold run's bytes for its
//     key; a 429, 5xx, transport error or degraded response fails the op.
//   - lint: one op is a hetlint ./... pass in a fresh process with all
//     nine analyzers and -jobs nproc. Only the analysis module runs, so
//     it is the no-change control for every simulator or service change.
//     A pass must exit 0 with zero findings.
//
// # End-to-end metrics
//
// Every workload reports setup_s, op_ms (wall time per op: one sweep,
// one request or one lint pass), ops_per_s, cpu_ms_per_op (host user+sys
// time per op) and peak_rss_mb. Timings are medians over the run's ops.
// peak_rss_mb is the median over lint passes of each pass's peak; for
// sweep it is the peak of the -jobs 1 reference, because at -jobs nproc a
// process's peak depends on which cells happen to overlap and swings by
// a third from run to run; for service it is the 90th percentile of the
// resident set sampled every 50 ms over the load, because the all-time
// peak depends on where a few GC cycles fell.
// For service, op_ms is in effect the cache-hit latency (most requests
// are hits) and ops_per_s is bound by the misses, which take most of the
// clients' time; the hit and miss p50s themselves are per-layer metrics
// (service.hit_p50_ms, service.miss_p50_ms), because every workload must
// report the same end-to-end set.
//
// Set-up is several seconds of steady work, done more than once per
// run, and setup_s is the median: sweep makes its -jobs 1 reference twice
// (the two passes run side by side, one CPU each), service builds and
// pre-fills a fresh service three times, lint makes two warm-up passes.
// An earlier design of this benchmark was too noisy to use: its op was
// one 18 s `-exp all` run per run, and its set-up timings were a few
// milliseconds, so neither repeated within a tenth. Hence many ops per
// run, multi-second set-up, and host CPU per op beside wall time (CPU
// time is about twice as steady as wall time on a VM with steal time).
//
// # Per-layer metrics and the traced run
//
// With --trace 1 the run is a separate, in-process traced run with the
// same seed, whatever the workload. It calls each module's public
// functions from outside, records a span (name, start, end, parent)
// around every call, keeps the spans in memory and writes them to
// <build dir>/spans/ when it ends. A layer's self time is its span
// minus the time its child spans cover; the run prints each layer's
// self time. Exact simulated-event counts come from a pass with
// runner.SetCapture, made twice (at -jobs nproc and at -jobs 1) and
// required to agree. bench.trace_slowdown is the traced in-process sweep
// pass over an identical untraced one: the tracing overhead.
//
// Each per-layer metric names the end-to-end metric and workload it
// should move (the Target and Workload fields in metrics.go):
//
//   - harness.exp_ms.<exp>: sweep op_ms.
//   - runner.busy_share.<exp> (Serial / (Wall x jobs) from
//     runner.TotalStats) and runner.cell_max_ms.<exp> (the straggler
//     cell): sweep op_ms, with cpu_ms_per_op flat.
//   - apps.setup_ms.<app> (NewProblem; miniFE's Assemble is inside it),
//     apps.characterize_ms.<app> (MeasuredTraits or MeasuredMissRate on
//     the dGPU) and apps.run_ms.<app> (Problem.Run on the dGPU, summed
//     over OpenMP and the three GPU models): sweep cpu_ms_per_op and
//     op_ms.
//   - models.run_ms.<model>, summed over the five apps: sweep op_ms.
//   - sim.cache.ns_per_access.{stream,random} (cache.New and AccessRange
//     on seeded traces at the R9 280X L2 geometry), sim.kernel_launches
//     and sim.transfers (exact counts per sweep op), sim.host_ns_per_launch
//     (host time per simulated launch or transfer) and events.<counter>
//     (the other exact per-op counts): sweep cpu_ms_per_op.
//   - trace.overhead_share (a traced over an untraced LULESH/OpenCL/dGPU
//     Run): sweep op_ms, through perfbaseline only.
//   - sched.coexec_ms.<app> (the dynamic planner on the dGPU) and
//     sched.chunks (exact): sweep op_ms, through coexec.
//   - workload.execute_ms (Parse+Compile+Execute, four specs x three
//     models x two machines) and fleet.run_ms (Generate + Cluster.Run):
//     small shares of sweep op_ms.
//   - fault.overhead_share (LULESH at fault rate 0.05 over a clean run)
//     and fault.retries (exact): sweep op_ms, through faults.
//   - service.do_hit_us (Service.Do on a warm key), service.http_hit_us
//     (the same key through Handler), service.hit_p50_ms/hit_p99_ms and
//     service.server_p50_ms/server_p99_ms (hist.service.request.ns):
//     service op_ms. service.miss_pair_same_seed_ms and
//     service.miss_pair_cross_seed_ms (two concurrent misses; their gap
//     is the seed gate's serialization), service.dedup_join_ms (a
//     follower joining an in-flight run), service.miss_p50_ms/miss_p90_ms
//     and the counters service.hit_share, service.dedup_joined,
//     service.shed, service.errors and service.evictions (the last three
//     should be 0): service ops_per_s. The tails are per-layer because
//     they are not yet steady.
//   - lint.load_ms, lint.analyze_ms, lint.analyzer_ms.<analyzer> (each
//     run alone and serially), lint.packages, lint.go_lines and
//     lint.findings (must be 0): lint op_ms. lint.go_lines shows when
//     the input grew rather than the tool slowed.
//
// Predictions later changes inherit: a set-up or characterization memo
// lowers sweep cpu_ms_per_op and op_ms and leaves lint flat (if the memo
// is process-wide, service peak_rss_mb shows its cost); longest-first
// cell ordering raises runner.busy_share.* and lowers sweep op_ms with
// cpu_ms_per_op flat; deleting the seed gate brings
// miss_pair_cross_seed_ms down to miss_pair_same_seed_ms; folding
// analyzers lowers lint.analyze_ms but cannot measurably move lint op_ms.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one benchmark run: its inputs and what it has measured.
type bench struct {
	root, bin, out string
	workload       string
	seed           int64
	dur            time.Duration
	jobs           int
	stdout         io.Writer

	values    map[string]float64
	rows      []string
	attempted int
	failed    int
	problems  []string
}

// set records a metric's value and its line in the report; n is the
// sample count behind it (0 for an exact count or a derived ratio).
func (b *bench) set(name string, v float64, n int) {
	b.values[name] = v
	b.rows = append(b.rows, fmt.Sprintf("  %-36s %14.4f %-5s n=%d", name, v, units[name], n))
}

// setTiming records the median of samples as the metric and reports the
// tail percentile beside it.
func (b *bench) setTiming(name string, samples []float64) {
	t := summarize(samples)
	b.values[name] = t.Median
	line := fmt.Sprintf("  %-36s %14.4f %-5s n=%d", name, t.Median, units[name], t.N)
	if t.TailP > 0 {
		line += fmt.Sprintf("  p%g=%.4f", t.TailP, t.Tail)
	}
	b.rows = append(b.rows, line)
}

// fail counts a failed op and keeps the first few reasons for stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 10 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		u[m.Name] = m.Unit
	}
	return u
}()

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root the programs were built from")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the hetbench and hetlint binaries")
	out := fs.String("out", ".bench_build", "directory the traced run writes its spans under")
	wl := fs.String("workload", "", "sweep | service | lint")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *wl != wlSweep && *wl != wlService && *wl != wlLint:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (sweep, service, lint)\n", *wl)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds %d must be at least 1\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: --trace %d must be 0 or 1\n", *traced)
		return 2
	}
	b := &bench{
		root: *root, bin: *bin, out: *out,
		workload: *wl, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		jobs:   runtime.NumCPU(),
		stdout: stdout,
		values: map[string]float64{},
	}
	ctx := context.Background()
	steal0, stealErr := readCPUStat()

	var err error
	want := endToEnd
	switch {
	case *traced == 1:
		want = perLayer
		err = runTraced(ctx, b)
	case b.workload == wlSweep:
		err = runSweep(ctx, b)
	case b.workload == wlService:
		err = runService(ctx, b)
	case b.workload == wlLint:
		err = runLint(ctx, b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}

	cond := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": *seconds, "trace": *traced,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"workers": b.jobs,
	}
	if steal1, err := readCPUStat(); err == nil && stealErr == nil {
		cond["steal_share"] = steal1.stealShareSince(steal0)
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := b.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", b.workload, m.Name)
			return 1
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no op completed in %ds\n", b.workload, *seconds)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintf(stderr, "perfbench: failed op: %s\n", p)
	}

	fmt.Fprintf(stdout, "perfbench %s (seed %d, %ds, trace %d): %d ops, %d failed\n",
		b.workload, b.seed, *seconds, *traced, b.attempted, b.failed)
	for _, r := range b.rows {
		fmt.Fprintln(stdout, r)
	}
	condLine, _ := json.Marshal(map[string]any{"conditions": cond})
	fmt.Fprintln(stdout, string(condLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// expSeed maps the workload seed onto a valid hetbench -seed (a positive
// integer), so any seed, zero and negatives included, is usable.
func expSeed(seed int64) int64 {
	s := seed % 1_000_003
	if s < 0 {
		s = -s
	}
	return s + 1
}

// cpuStat is the aggregate cpu line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() (cpuStat, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var st cpuStat
		// user nice system idle iowait irq softirq steal: guest time is
		// already inside user and nice.
		for i, f := range fields[1:9] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("/proc/stat: %w", err)
			}
			st.total += v
			if i == 7 {
				st.steal = v
			}
		}
		return st, nil
	}
	return cpuStat{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealShareSince is the share of CPU time stolen by the hypervisor
// between two readings.
func (s cpuStat) stealShareSince(old cpuStat) float64 {
	if s.total <= old.total {
		return 0
	}
	return float64(s.steal-old.steal) / float64(s.total-old.total)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
