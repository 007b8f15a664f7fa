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
//	hetbench -exp perfbaseline -bench-out BENCH_runner.json
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
// Progress output (-progress, -progress-log) and BENCH snapshots
// (-bench-out) carry wall-clock durations and go to stderr or dedicated
// files, so stdout keeps that guarantee.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hetbench/internal/harness"
	"hetbench/internal/harness/runner"
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
	benchOut := fs.String("bench-out", "", "write the runner's wall-clock stats as a BENCH_*.json snapshot to this file")
	benchDelta := fs.String("bench-delta", "", "compare two BENCH_*.json snapshots (OLD,NEW) and exit; nonzero on regression")
	benchThreshold := fs.Float64("bench-threshold", 0.2, "tolerated fractional ns/op growth for -bench-delta (0 disables the time gate)")
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
	ctx = harness.WithSeed(ctx, *seed)
	runner.SetJobs(*jobsFlag) // 0 restores the default (HETBENCH_JOBS or GOMAXPROCS)
	runner.ResetStats()

	// With -trace or -metrics, every cell records into a private tracer
	// that folds into this capture in deterministic cell order; the
	// combined span set (and merged counter/histogram registry) is
	// written on exit and is identical at any -jobs.
	var tracer *trace.Tracer
	if *traceOut != "" || *metricsOut != "" {
		tracer = trace.New()
		runner.SetCapture(tracer)
		defer runner.SetCapture(nil)
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
		// JSONL file behind. The deferred SetProgress(nil) below runs
		// first (LIFO), so no sink writes race the close. A close failure
		// on an otherwise-clean run flips the exit code: silently dropped
		// progress records would defeat the log's purpose.
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
		runner.SetProgress(sinks)
		defer runner.SetProgress(nil)
	}

	if *exp == "all" {
		err = harness.RunAll(ctx, scale, stdout)
	} else {
		e, ok := reg[*exp]
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; try -list\n", *exp)
			return 2
		}
		fmt.Fprintf(stdout, "=== %s — %s ===\n", e.ID, e.Title)
		err = e.Run(ctx, scale, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *verbose {
		// Stats go to stderr so stdout stays byte-comparable across runs.
		fmt.Fprintln(stderr, runner.TotalStats())
	}

	if tracer != nil && *traceOut != "" {
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
	if tracer != nil && *metricsOut != "" {
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
	if *benchOut != "" {
		if err := writeRunnerBench(*benchOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s (runner suite)\n", *benchOut)
	}
	return 0
}

// writeRunnerBench snapshots the accumulated runner stats as the
// "runner" BENCH suite. Commit metadata comes from HETBENCH_COMMIT (CI
// passes GITHUB_SHA); the numbers are wall-clock, so the snapshot is a
// trajectory point, not a deterministic artifact.
func writeRunnerBench(path string) error {
	s := runner.TotalStats()
	if s.Cells == 0 {
		return fmt.Errorf("bench-out: no runner cells executed")
	}
	commit := os.Getenv("HETBENCH_COMMIT")
	if commit == "" {
		commit = os.Getenv("GITHUB_SHA")
	}
	f := &report.BenchFile{
		Suite:  "runner",
		Commit: commit,
		Date:   time.Now().UTC().Format(time.RFC3339), //hetlint:allow detnondet BENCH metadata timestamps the snapshot, never experiment output
		Go:     runtime.Version(),
		Jobs:   s.Jobs,
		Entries: []report.BenchEntry{
			{Name: "runner/wall", NsPerOp: float64(s.Wall), AllocsPerOp: -1, Count: 1},
			{Name: "runner/serial-estimate", NsPerOp: float64(s.Serial), AllocsPerOp: -1, Count: 1},
			{
				Name:        "runner/cell",
				NsPerOp:     float64(s.Serial) / float64(s.Cells),
				AllocsPerOp: -1,
				Count:       int64(s.Cells),
				P50Ns:       s.CellNs.Quantile(0.50),
				P95Ns:       s.CellNs.Quantile(0.95),
				P99Ns:       s.CellNs.Quantile(0.99),
				MaxNs:       s.CellNs.Max(),
			},
		},
	}
	return report.WriteBenchFile(path, f)
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
