// Command hetbench regenerates the paper's tables and figures on the
// simulated machines.
//
// Usage:
//
//	hetbench -list
//	hetbench -exp fig8 [-scale smoke|small|default|paper]
//	hetbench -exp all  [-scale default]
//	hetbench -exp fig9 -trace out.json     # capture a Chrome/Perfetto trace
//	hetbench -exp faults -seed 7           # seeded fault-injection sweep
//	hetbench -exp coexec -seed 1           # CPU+accelerator co-execution sweep
//	hetbench -exp dag -seed 1              # declarative DAG workload sweep
//	hetbench -exp fleet -seed 1            # cluster-scale fleet simulation sweep
//	hetbench -exp fig8 -jobs 8 -v          # parallel cells + runner stats
//	hetbench -exp all -progress            # live one-line progress on stderr
//	hetbench -exp fig9 -metrics m.csv      # counters + histogram quantiles as CSV
//	hetbench -exp fig9 -cpuprofile cpu.out # pprof CPU profile (-memprofile: heap)
//	hetbench -bench-delta old.json,new.json -bench-threshold 0.2
//
// Experiment ids: table1 table2 table3 table4 fig7 fig8 fig9 fig10 fig11
// hc tiles dataregion gridtype scaling profile roofline energy trace
// faults coexec dag perfbaseline fleet, or "all". "-exp list" is an
// alias for -list.
//
// Experiments run their independent cells on a bounded worker pool
// (-jobs, default GOMAXPROCS) and merge results in deterministic cell
// order: the output is byte-identical at any -jobs under the same -seed.
// Progress output (-progress, -progress-log) and runner statistics (-v)
// carry wall-clock durations and go to stderr or a dedicated file, so
// stdout keeps that guarantee. The flags build one runner.Scope that
// every cell of the invocation runs under.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hetbench/internal/harness"
	"hetbench/internal/harness/runner"
	"hetbench/internal/profiling"
	"hetbench/internal/report"
	"hetbench/internal/trace"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: in-flight cells finish, the
	// runner skips the rest, and the progress log still flushes below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: it parses args, executes, and returns the
// process exit code (0 ok, 1 runtime failure, 2 usage error).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("hetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (see -list) or 'all'")
	scaleFlag := fs.String("scale", "default", "problem scale: smoke | small | default | paper")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON of the run to this file (open in Perfetto)")
	seed := fs.Int64("seed", 1, "run-wide PRNG seed (fault injection); equal seeds give bit-identical runs")
	jobsFlag := fs.Int("jobs", 0, "experiment cells run concurrently (0 = GOMAXPROCS); output is identical at any -jobs")
	verbose := fs.Bool("v", false, "print runner statistics (cells, wall vs serial-estimate time) to stderr")
	list := fs.Bool("list", false, "list experiments and exit")
	progress := fs.Bool("progress", false, "render live cell progress (done/running/failed, cell quantiles, ETA) as one stderr line")
	progressLog := fs.String("progress-log", "", "append progress events as JSON lines to this file")
	metricsOut := fs.String("metrics", "", "write the run's counters and histogram quantiles as CSV to this file")
	benchDelta := fs.String("bench-delta", "", "compare two BENCH_*.json snapshots (OLD,NEW) and exit; nonzero on regression")
	benchThreshold := fs.Float64("bench-threshold", 0.2, "tolerated fractional ns/op growth for -bench-delta (0 disables the time gate)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file when the run ends")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *benchDelta != "" {
		return runBenchDelta(*benchDelta, *benchThreshold, stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q; hetbench takes flags only\n", fs.Args())
		return 2
	}
	if *jobsFlag < 0 {
		fmt.Fprintf(stderr, "invalid -jobs %d: the worker count must not be negative\n", *jobsFlag)
		return 2
	}

	reg := harness.Registry()
	if *exp == "list" {
		// "list" is not an experiment id; treat -exp list as -list.
		*list = true
	}
	if *list {
		if *traceOut != "" {
			fmt.Fprintln(stderr, "-list cannot be combined with -trace")
			return 2
		}
		for _, id := range harness.IDs() {
			e := reg[id]
			fmt.Fprintf(stdout, "%-11s %s\n            %s\n", e.ID, e.Title, e.Description)
		}
		return 0
	}

	scale, err := harness.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *seed <= 0 {
		fmt.Fprintf(stderr, "invalid -seed %d: the seed must be a positive integer\n", *seed)
		return 2
	}
	runExp := harness.RunAll
	if *exp != "all" {
		e, ok := reg[*exp]
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; try -list\n", *exp)
			return 2
		}
		runExp = func(ctx context.Context, scale harness.Scale, w io.Writer) error {
			fmt.Fprintf(w, "=== %s — %s ===\n", e.ID, e.Title)
			return e.Run(ctx, scale, w)
		}
	}
	// One run memo for the whole invocation: -exp all characterizes each
	// (app, device) and executes each app's functional pass once across
	// every experiment.
	ctx = harness.WithMemo(harness.WithSeed(ctx, *seed))

	stopProfile, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()
	runner.SetJobs(*jobsFlag) // 0 restores the default (HETBENCH_JOBS or GOMAXPROCS)

	// With -trace or -metrics, every cell records into a private tracer
	// that folds into the scope's capture in deterministic cell order;
	// the combined span set (and merged counter/histogram registry) is
	// written on exit and is identical at any -jobs.
	sc := &runner.Scope{}
	if *traceOut != "" || *metricsOut != "" {
		sc.Capture = trace.New()
	}

	// Progress sinks watch the pool live; they carry wall-clock numbers
	// and write to stderr or a dedicated log, never stdout.
	var sinks runner.MultiSink
	if *progress {
		sinks = append(sinks, &runner.TTYSink{W: stderr})
	}
	if *progressLog != "" {
		f, err := os.Create(*progressLog)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		// Flush and close on every exit path — error and early returns
		// included — so a killed or failed run still leaves a complete
		// JSONL file behind. Every Run has returned, and so stopped
		// emitting, before this runs. A close failure on an otherwise-clean
		// run flips the exit code: silently dropped progress records would
		// defeat the log's purpose.
		defer func() {
			ferr := f.Sync()
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
			if ferr != nil {
				fmt.Fprintf(stderr, "progress-log %s: %v\n", *progressLog, ferr)
				if code == 0 {
					code = 1
				}
			}
		}()
		sinks = append(sinks, &runner.JSONLSink{W: f})
	}
	if len(sinks) > 0 {
		sc.Progress = sinks
	}

	if err := runExp(runner.WithScope(ctx, sc), scale, stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *verbose {
		// Stats go to stderr so stdout stays byte-comparable across runs.
		fmt.Fprintln(stderr, sc.Stats())
	}

	tracer := sc.Capture
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := trace.WriteChrome(f, tracer); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d spans, %d machines) — open at https://ui.perfetto.dev\n",
			*traceOut, tracer.Len(), len(tracer.Processes()))
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := trace.WriteMetricsCSV(f, tracer); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d counters, %d histograms)\n",
			*metricsOut, len(tracer.Metrics().Names()), len(tracer.Metrics().HistNames()))
	}
	return 0
}

// runBenchDelta is the -bench-delta mode: compare OLD,NEW snapshots,
// print the delta table, and return 1 when anything regressed beyond
// the threshold.
func runBenchDelta(spec string, threshold float64, stdout, stderr io.Writer) int {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		fmt.Fprintln(stderr, "-bench-delta wants two files: OLD,NEW")
		return 2
	}
	old, err := report.ReadBenchFile(parts[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cur, err := report.ReadBenchFile(parts[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if old.Suite != cur.Suite {
		fmt.Fprintf(stderr, "suite mismatch: %s has %q, %s has %q\n", parts[0], old.Suite, parts[1], cur.Suite)
		return 1
	}
	rep := report.PerfDelta(old, cur, threshold)
	if _, err := rep.Table().WriteTo(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if regs := rep.Regressions(); len(regs) > 0 {
		fmt.Fprintf(stderr, "perf regression in %s\n", strings.Join(regs, ", "))
		return 1
	}
	return 0
}
