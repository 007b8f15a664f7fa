// Package hetbench reproduces "Exploring Parallel Programming Models for
// Heterogeneous Computing Systems" (Daga, Tschirhart, Freitag; IISWC 2015)
// as a pure-Go simulation study: a functional+analytic heterogeneous-
// system simulator (APU and discrete GPU), four programming-model runtimes
// (OpenCL-, C++ AMP-, OpenACC- and OpenMP-style) over one execution
// engine, the paper's five workloads, and a harness that regenerates every
// table and figure. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-versus-measured results.
//
// Package map:
//
//	internal/sim      simulated platform: devices, caches, DRAM, PCIe,
//	                  roofline timing, NDRange executor, power model
//	internal/models   the programming-model runtimes over one machine API
//	internal/apps     the five workloads under every model
//	internal/sloc     logical-SLOC counting behind Table IV / Eq. 1
//	internal/trace    spans, counter registry, hist.* latency histograms,
//	                  Chrome-trace and CSV exporters
//	internal/fault    deterministic fault injector + recovery layers
//	internal/sched    CPU+accelerator co-execution scheduler and the
//	                  DAG-aware planner over per-device virtual queues
//	internal/workload declarative multi-kernel workload specs: strict
//	                  JSON parser/validator (dataflow edges, cycle
//	                  rejection, deterministic topo order) plus the
//	                  interpreter running specs through sim.Machine
//	                  under every model's transfer strategy
//	internal/fleet    cluster-scale simulation: mixed APU/dGPU node
//	                  fleets under seeded arrival traces (poisson,
//	                  bursty), static/dynamic/hguided placement,
//	                  device-loss migration, tail-latency histograms
//	internal/harness  one Experiment per table/figure/ablation/extension
//	internal/harness/runner
//	                  bounded worker pool: cell-order-deterministic merge,
//	                  a run Scope (capture, progress sink, Stats with
//	                  per-cell quantiles) carried on the context
//	internal/report   ASCII tables, series, CSV, and the hetbench-bench/v1
//	                  BENCH_*.json schema with the PerfDelta gate
//	internal/service  hetbenchd's core: content-addressed result cache,
//	                  singleflight dedup, bounded admission with load
//	                  shedding, end-to-end cancellation, drain on Close
//	internal/service/client
//	                  retrying client (backoff + Retry-After) and the
//	                  loadgen mode with hit/miss latency quantiles
//	internal/service/chaostest
//	                  failure-injection harness: gated/panicking runs,
//	                  goroutine-leak checker, slow reader
//	internal/analysis hetlint's domain analyzers (detnondet, ctxflow)
//	                  and the parallel driver with text/json/sarif
//	                  renderers
//	cmd/hetbench      the experiment driver (-exp, -jobs, -trace, -metrics,
//	                  -progress, -bench-delta)
//	cmd/hetbenchd     the HTTP/JSON simulation daemon
//	cmd/hetbenchctl   its client: single runs, -loadgen (closed-loop or
//	                  fleet-trace -arrivals replay), -metricz
//	cmd/hetlint       the static-analysis driver
//	specs/            shipped workload specs (sobel, canny, 3mm, mlp),
//	                  embedded as hetbench.SpecFS for the dag experiment
//
// The perf baseline BENCH_hotpath.json lives at the repo root;
// bench_test.go regenerates it when HETBENCH_BENCH_OUT is set. The
// wall-clock runner and service numbers come from the benchmark driver
// under _perfbench (BENCHMARK.json).
package hetbench
