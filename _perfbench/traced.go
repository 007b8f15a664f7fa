package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"hetbench"
	"hetbench/internal/analysis"
	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/comd"
	"hetbench/internal/apps/lulesh"
	"hetbench/internal/apps/minife"
	"hetbench/internal/apps/readmem"
	"hetbench/internal/apps/xsbench"
	"hetbench/internal/fault"
	"hetbench/internal/fleet"
	"hetbench/internal/harness"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/service"
	"hetbench/internal/sim"
	"hetbench/internal/sim/cache"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
	"hetbench/internal/workload"
)

// tracedServiceLoad is how long the traced run drives the two clients
// for the service tails and counters.
const tracedServiceLoad = 6 * time.Second

// prober runs the traced pass: every layer probe calls public functions
// of one module from outside, inside spans.
type prober struct {
	b    *bench
	rec  *spanRecorder
	seed int64 // the hetbench seed

	// sweepMs is the untraced in-process sweep pass's wall time.
	sweepMs float64

	// The five small-scale, double-precision problems, built by the apps
	// probe and reused by the probes after it.
	rm *readmem.Problem
	lu *lulesh.Problem
	co *comd.Problem
	xs *xsbench.Problem
	mf *minife.Problem
}

// probe counts one attempted probe and fails it on err.
func (p *prober) probe(name string, err error) {
	p.b.attempted++
	if err != nil {
		p.b.fail("%s: %v", name, err)
	}
}

// runTraced is the traced run: the same probes whatever the workload,
// with the workload seed.
func runTraced(ctx context.Context, b *bench) error {
	runner.SetJobs(b.jobs)
	p := &prober{b: b, rec: newSpanRecorder(), seed: expSeed(b.seed)}
	harness.SetSeed(p.seed)
	var err error
	p.rec.do("bench", "traced run", func() {
		p.simCache()
		p.apps()
		p.traceOverhead()
		p.coexec()
		p.workloads()
		p.fleet()
		p.faults()
		if err = p.sweep(ctx); err != nil {
			return
		}
		if err = p.events(ctx); err != nil {
			return
		}
		if err = p.service(ctx); err != nil {
			return
		}
		err = p.lint()
	})
	if err != nil {
		return err
	}
	p.rec.report(b.stdout)
	path := filepath.Join(b.out, "spans", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	if err := p.rec.write(path); err != nil {
		return err
	}
	fmt.Fprintf(b.stdout, "wrote %s\n", path)
	return nil
}

// simCache drives the L2 model directly with seeded streaming and
// random traces at the R9 280X geometry.
func (p *prober) simCache() {
	dev := sim.NewDGPU().Accelerator()
	cfg := cache.Config{SizeBytes: dev.L2SizeBytes, LineBytes: dev.CacheLineBytes, Ways: dev.L2Ways}
	const n = 1 << 21
	rng := rand.New(rand.NewSource(p.seed))
	traces := map[string][]uint64{"stream": make([]uint64, n), "random": make([]uint64, n)}
	for i := range traces["stream"] {
		traces["stream"][i] = uint64(i) * 8
		traces["random"][i] = uint64(rng.Int63n(1<<28)) &^ 7
	}
	for _, kind := range []string{"stream", "random"} {
		addrs := traces[kind]
		var ns []float64
		for rep := 0; rep < 3; rep++ {
			d := p.rec.do("sim", "cache.AccessRange/"+kind, func() {
				c := cache.New(cfg)
				for _, a := range addrs {
					c.AccessRange(a, 8)
				}
			})
			ns = append(ns, d*1e6/n)
		}
		p.b.setTiming("sim.cache.ns_per_access."+kind, ns)
	}
	p.probe("sim.cache", nil)
}

// appSet adapts the five apps to one shape for the apps probe.
type appSet struct {
	key          string
	setup        func()
	characterize func(m *sim.Machine) // nil: readmem's miss rate is analytic
	run          func(m *sim.Machine, model modelapi.Name) appcore.Result
}

func (p *prober) appSets() []appSet {
	prec := timing.Double
	// The harness's small-scale configurations.
	luCfg := lulesh.Config{S: 32, Iters: 30, FunctionalIters: 1}
	coCfg := comd.Config{Nx: 8, Ny: 8, Nz: 8, Iters: 12, FunctionalIters: 1}
	return []appSet{
		{"readmem",
			func() { p.rm = readmem.NewProblem(readmem.Config{Blocks: 1 << 15, Precision: prec}) },
			nil,
			func(m *sim.Machine, md modelapi.Name) appcore.Result { return p.rm.Run(m, md) }},
		{"lulesh",
			func() { p.lu = lulesh.NewProblem(luCfg, prec) },
			func(m *sim.Machine) { p.lu.MeasuredTraits(m) },
			func(m *sim.Machine, md modelapi.Name) appcore.Result { return p.lu.Run(m, md) }},
		{"comd",
			func() { p.co = comd.NewProblem(coCfg, prec) },
			func(m *sim.Machine) { comd.NewState(coCfg).MeasuredMissRate(m, prec) },
			func(m *sim.Machine, md modelapi.Name) appcore.Result { return p.co.Run(m, md) }},
		{"xsbench",
			func() {
				p.xs = xsbench.NewProblem(xsbench.Config{Nuclides: 32, GridPoints: 2048, Lookups: 100_000}, prec)
			},
			func(m *sim.Machine) { p.xs.MeasuredMissRate(m) },
			func(m *sim.Machine, md modelapi.Name) appcore.Result { return p.xs.Run(m, md) }},
		{"minife",
			func() {
				p.mf = minife.NewProblem(minife.Config{Nx: 48, Ny: 48, Nz: 48, MaxIters: 30, FunctionalIters: 2}, prec)
			},
			func(m *sim.Machine) { p.mf.MeasuredMissRate(m) },
			func(m *sim.Machine, md modelapi.Name) appcore.Result { return p.mf.Run(m, md).Result }},
	}
}

// apps times problem set-up, characterization on the dGPU and
// Problem.Run on the dGPU under OpenMP and the three GPU models.
func (p *prober) apps() {
	models := append([]modelapi.Name{modelapi.OpenMP}, modelapi.All()...)
	modelMs := make([]float64, len(models))
	var err error
	for _, a := range p.appSets() {
		p.b.set("apps.setup_ms."+a.key, p.rec.do("apps", a.key+".NewProblem", a.setup), 1)
		if a.characterize != nil {
			m := sim.NewDGPU()
			p.b.set("apps.characterize_ms."+a.key, p.rec.do("apps", a.key+".characterize", func() { a.characterize(m) }), 1)
		}
		total := 0.0
		for i, md := range models {
			var res appcore.Result
			d := p.rec.do("models", a.key+".Run/"+string(md), func() { res = a.run(sim.NewDGPU(), md) })
			if !(res.ElapsedNs > 0) && err == nil {
				err = fmt.Errorf("%s under %s took no virtual time", a.key, md)
			}
			modelMs[i] += d
			total += d
		}
		p.b.set("apps.run_ms."+a.key, total, len(models))
	}
	for i, key := range modelKeys {
		p.b.set("models.run_ms."+key, modelMs[i], len(appKeys))
	}
	p.probe("apps", err)
}

// traceOverhead compares traced and untraced LULESH/OpenCL/dGPU runs,
// alternating, three of each.
func (p *prober) traceOverhead() {
	var plain, traced []float64
	var res [2]appcore.Result
	for rep := 0; rep < 3; rep++ {
		plain = append(plain, p.rec.do("trace", "lulesh.Run/untraced", func() {
			res[0] = p.lu.Run(sim.NewDGPU(), modelapi.OpenCL)
		}))
		traced = append(traced, p.rec.do("trace", "lulesh.Run/traced", func() {
			m := sim.NewDGPU()
			m.SetTracer(trace.New())
			res[1] = p.lu.Run(m, modelapi.OpenCL)
		}))
	}
	p.b.set("trace.overhead_share", median(traced)/median(plain)-1, len(plain))
	var err error
	if res[0].ElapsedNs != res[1].ElapsedNs {
		err = fmt.Errorf("tracing changed LULESH's virtual time")
	}
	p.probe("trace", err)
}

// coexec times the dynamic co-execution planner on the dGPU.
func (p *prober) coexec() {
	runs := map[string]func(m *sim.Machine) appcore.Result{
		"readmem": func(m *sim.Machine) appcore.Result { return p.rm.Run(m, modelapi.OpenCL) },
		"lulesh":  func(m *sim.Machine) appcore.Result { return p.lu.Run(m, modelapi.OpenCL) },
		"minife":  func(m *sim.Machine) appcore.Result { return p.mf.Run(m, modelapi.OpenCL).Result },
	}
	chunks := 0
	for _, key := range coexecKeys {
		s := sched.New(sched.Config{Policy: sched.Dynamic, Seed: p.seed})
		d := p.rec.do("sched", key+".Run/dynamic", func() {
			m := sim.NewDGPU()
			m.SetCoexec(s)
			runs[key](m)
		})
		p.b.set("sched.coexec_ms."+key, d, 1)
		chunks += s.Stats().Chunks
	}
	p.b.set("sched.chunks", float64(chunks), 0)
	var err error
	if chunks == 0 {
		err = fmt.Errorf("the dynamic planner booked no chunks")
	}
	p.probe("sched", err)
}

// workloads parses, compiles and executes the shipped DAG specs under
// every GPU model on both machines.
func (p *prober) workloads() {
	var err error
	d := p.rec.do("workload", "Parse+Compile+Execute", func() {
		for _, path := range hetbench.SpecPaths() {
			var data []byte
			if data, err = hetbench.SpecFS.ReadFile(path); err != nil {
				return
			}
			var spec *workload.Spec
			if spec, err = workload.Parse(data); err != nil {
				return
			}
			var prog *workload.Program
			if prog, err = spec.Compile(); err != nil {
				return
			}
			for _, md := range modelapi.All() {
				for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
					workload.Execute(mk(), prog, workload.Options{Model: md, Iterations: 2})
				}
			}
		}
	})
	p.b.set("workload.execute_ms", d, 1)
	p.probe("workload", err)
}

// fleet generates a seeded Poisson trace and runs it on a 16-node
// cluster under the dynamic balancer.
func (p *prober) fleet() {
	mix := fleet.JobMix{Stream: 2, Compute: 1, Irregular: 1}
	const jobs = 1200
	var res fleet.Result
	d := p.rec.do("fleet", "Generate+Cluster.Run", func() {
		seed := fault.SubSeed(p.seed, 100)
		arrivals := fleet.Generate(fleet.TraceSpec{
			Shape: fleet.Poisson, Jobs: jobs, Mix: mix, Seed: seed,
			RatePerSec: 0.9 * fleet.CapacityPerSec(12, 4, mix),
		})
		res = fleet.New(fleet.Config{APUs: 12, DGPUs: 4, Policy: sched.Dynamic, Seed: seed}).Run(arrivals)
	})
	p.b.set("fleet.run_ms", d, 1)
	var err error
	if res.Completed != jobs {
		err = fmt.Errorf("%d of %d jobs completed", res.Completed, jobs)
	}
	p.probe("fleet", err)
}

// faults compares LULESH/OpenCL/dGPU at fault rate 0.05 with a clean
// run, alternating, three of each. The fault stream is seeded, so every
// faulted run must count the same retries.
func (p *prober) faults() {
	const rate = 0.05
	var clean, faulted []float64
	retries := -1
	var err error
	for rep := 0; rep < 3; rep++ {
		clean = append(clean, p.rec.do("fault", "lulesh.Run/clean", func() {
			p.lu.Run(sim.NewDGPU(), modelapi.OpenCL)
		}))
		faulted = append(faulted, p.rec.do("fault", "lulesh.Run/rate0.05", func() {
			m := sim.NewDGPU()
			m.SetFaultInjector(fault.New(fault.Config{
				Seed:                fault.SubSeed(p.seed, 7),
				LaunchFailRate:      rate,
				HangRate:            rate / 4,
				BitFlipRate:         rate / 4,
				TransferCorruptRate: rate,
				DeviceLossRate:      rate / 16,
				DeviceLossNs:        fault.DefaultDeviceLossNs,
			}), fault.DefaultPolicy())
			p.lu.Run(m, modelapi.OpenCL)
			r := m.Resilience().Retries
			if retries >= 0 && r != retries && err == nil {
				err = fmt.Errorf("retries differ between identical seeded runs: %d and %d", retries, r)
			}
			retries = r
		}))
	}
	p.b.set("fault.overhead_share", median(faulted)/median(clean)-1, len(clean))
	p.b.set("fault.retries", float64(retries), 0)
	p.probe("fault", err)
}

// sweepPassInProcess runs the sweep experiments in this process and
// returns their outputs. each, when non-nil, wraps every experiment.
func (p *prober) sweepPassInProcess(ctx context.Context, each func(exp string, run func())) ([][]byte, error) {
	reg := harness.Registry()
	outs := make([][]byte, len(sweepExps))
	for i, exp := range sweepExps {
		var buf bytes.Buffer
		var err error
		run := func() { err = reg[exp].Run(ctx, harness.ScaleSmall, &buf) }
		if each != nil {
			each(exp, run)
		} else {
			run()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp, err)
		}
		outs[i] = buf.Bytes()
	}
	return outs, nil
}

// sweep runs the sweep in-process twice, untraced and then with a span
// and runner stats per experiment; the two must print the same bytes.
func (p *prober) sweep(ctx context.Context) error {
	var plain [][]byte
	var err error
	plainMs := p.rec.do("bench", "sweep/untraced", func() { plain, err = p.sweepPassInProcess(ctx, nil) })
	if err != nil {
		return err
	}
	tracedMs := 0.0
	traced, err := p.sweepPassInProcess(ctx, func(exp string, run func()) {
		runner.ResetStats()
		d := p.rec.do("harness", exp+".Run", run)
		tracedMs += d
		p.b.set("harness.exp_ms."+exp, d, 1)
		if st := runner.TotalStats(); slices.Contains(runnerExps, exp) && st.Wall > 0 {
			p.b.set("runner.busy_share."+exp, float64(st.Serial)/(float64(st.Wall)*float64(st.Jobs)), st.Cells)
			p.b.set("runner.cell_max_ms."+exp, st.CellNs.Max()/1e6, st.Cells)
		}
	})
	if err != nil {
		return err
	}
	p.b.set("bench.trace_slowdown", tracedMs/plainMs, 0)
	p.sweepMs = plainMs
	var ferr error
	if i := firstDiff(plain, traced); i >= 0 {
		ferr = fmt.Errorf("%s printed different bytes on two in-process runs", sweepExps[i])
	}
	p.probe("harness", ferr)
	return nil
}

// events counts the simulated events of one sweep op with a run-wide
// trace capture, at -jobs nproc and at -jobs 1; the counts must agree.
func (p *prober) events(ctx context.Context) error {
	names := append([]string{trace.CtrKernelLaunches, trace.CtrTransferCount}, eventCounters...)
	var counts [2]map[string]float64
	for i, jobs := range []int{p.b.jobs, 1} {
		tr := trace.New()
		runner.SetJobs(jobs)
		runner.SetCapture(tr)
		var err error
		p.rec.do("trace", fmt.Sprintf("capture/jobs%d", jobs), func() {
			_, err = p.sweepPassInProcess(ctx, nil)
		})
		runner.SetCapture(nil)
		if err != nil {
			return err
		}
		counts[i] = map[string]float64{}
		for _, n := range names {
			counts[i][n] = tr.Metrics().Get(n)
		}
	}
	runner.SetJobs(p.b.jobs)
	var err error
	for _, n := range names {
		if counts[0][n] != counts[1][n] {
			err = fmt.Errorf("%s: %g at -jobs %d but %g at -jobs 1", n, counts[0][n], p.b.jobs, counts[1][n])
			break
		}
	}
	c := counts[0]
	p.b.set("sim.kernel_launches", c[trace.CtrKernelLaunches], 0)
	p.b.set("sim.transfers", c[trace.CtrTransferCount], 0)
	if events := c[trace.CtrKernelLaunches] + c[trace.CtrTransferCount]; events > 0 {
		p.b.set("sim.host_ns_per_launch", p.sweepMs*1e6/events, 0)
	}
	for _, n := range eventCounters {
		p.b.set("events."+n, c[n], 0)
	}
	p.probe("events", err)
	return nil
}

// service drives an in-process hetbenchd: the clients' script for the
// tails and counters, then single-call probes of the hit path, the seed
// gate and dedup.
func (p *prober) service(ctx context.Context) error {
	sc := newScript(p.b.seed)
	var env *svcEnv
	var err error
	p.rec.do("service", "startService", func() { env, err = startService(ctx, sc.warm) })
	if err != nil {
		return err
	}
	var ld loadResult
	p.rec.do("service", "load", func() { ld = env.load(ctx, sc, tracedServiceLoad) })
	var lerr error
	if len(ld.Failures) > 0 {
		lerr = fmt.Errorf("%d failed requests, first: %s", len(ld.Failures), ld.Failures[0])
	}
	p.probe("service.load", lerr)
	p.b.setTiming("service.hit_p50_ms", ld.Hits)
	p.b.set("service.hit_p99_ms", quantile(ld.Hits, 0.99), len(ld.Hits))
	p.b.setTiming("service.miss_p50_ms", ld.Misses)
	p.b.set("service.miss_p90_ms", quantile(ld.Misses, 0.90), len(ld.Misses))
	reg := env.svc.Registry()
	if h := reg.Hist(trace.HistServiceRequestNs); h != nil {
		p.b.set("service.server_p50_ms", h.Quantile(0.5)/1e6, int(h.Count()))
		p.b.set("service.server_p99_ms", h.Quantile(0.99)/1e6, int(h.Count()))
	}
	p.b.set("service.hit_share", reg.Get(trace.CtrServiceCacheHits)/reg.Get(trace.CtrServiceRequests), 0)
	p.b.set("service.dedup_joined", reg.Get(trace.CtrServiceDedupJoined), 0)
	p.b.set("service.shed", reg.Get(trace.CtrServiceShed), 0)
	p.b.set("service.errors", reg.Get(trace.CtrServiceErrors), 0)
	p.b.set("service.evictions", reg.Get(trace.CtrServiceCacheEvictions), 0)

	p.probe("service.hit", p.hitProbes(ctx, env, sc))
	p.probe("service.miss", p.missProbes(ctx, env, sc))
	return env.close()
}

// hitProbes times a warm key through Service.Do and through Handler.
func (p *prober) hitProbes(ctx context.Context, env *svcEnv, sc *script) error {
	req := sc.warm[slices.Index(warmExps, "fig9")]
	want := env.cold[service.Key(req)]
	var doUs, httpUs []float64
	var err error
	p.rec.do("service", "Service.Do/hit x2000", func() {
		for i := 0; i < 2000 && err == nil; i++ {
			t0 := time.Now()
			var res *service.Result
			res, err = env.svc.Do(ctx, req)
			doUs = append(doUs, float64(time.Since(t0))/1e3)
			if err == nil && res.Output != want {
				err = fmt.Errorf("Do hit output differs from the cold run")
			}
		}
	})
	if err != nil {
		return err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	h := env.svc.Handler()
	p.rec.do("service", "Handler/hit x1000", func() {
		for i := 0; i < 1000 && err == nil; i++ {
			t0 := time.Now()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			httpUs = append(httpUs, float64(time.Since(t0))/1e3)
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("Handler hit returned %d", rec.Code)
			}
		}
	})
	p.b.setTiming("service.do_hit_us", doUs)
	p.b.setTiming("service.http_hit_us", httpUs)
	return err
}

// missProbes times pairs of concurrent misses under one seed and under
// two, and a follower joining an in-flight run, three of each.
func (p *prober) missProbes(ctx context.Context, env *svcEnv, sc *script) error {
	next := 0
	fresh := func() int64 { next++; return sc.probeSeed(next) }
	pair := func(s1, s2 int64) (float64, error) {
		var errs [2]error
		d := p.rec.do("service", "Service.Do/miss pair", func() {
			var wg sync.WaitGroup
			for i, r := range []service.RunRequest{
				{Experiment: missExp, Scale: warmScale, Seed: s1},
				{Experiment: "perfbaseline", Scale: warmScale, Seed: s2},
			} {
				wg.Add(1)
				go func(i int, r service.RunRequest) {
					defer wg.Done()
					_, errs[i] = env.svc.Do(ctx, r)
				}(i, r)
			}
			wg.Wait()
		})
		return d, errors.Join(errs[:]...)
	}
	var same, cross, join []float64
	for rep := 0; rep < 3; rep++ {
		s := fresh()
		d, err := pair(s, s)
		if err != nil {
			return err
		}
		same = append(same, d)
		if d, err = pair(fresh(), fresh()); err != nil {
			return err
		}
		cross = append(cross, d)
		d, err = p.dedupJoin(ctx, env, sc.miss(fresh()))
		if err != nil {
			return err
		}
		join = append(join, d)
	}
	p.b.setTiming("service.miss_pair_same_seed_ms", same)
	p.b.setTiming("service.miss_pair_cross_seed_ms", cross)
	p.b.setTiming("service.dedup_join_ms", join)
	return nil
}

// dedupJoin starts a leader run of req, waits until the service has
// registered it, then times a follower sending the same request.
func (p *prober) dedupJoin(ctx context.Context, env *svcEnv, req service.RunRequest) (float64, error) {
	reg := env.svc.Registry()
	misses, joined := reg.Get(trace.CtrServiceCacheMisses), reg.Get(trace.CtrServiceDedupJoined)
	lead := make(chan error, 1)
	go func() {
		_, err := env.svc.Do(ctx, req)
		lead <- err
	}()
	for reg.Get(trace.CtrServiceCacheMisses) == misses {
		select {
		case err := <-lead:
			return 0, fmt.Errorf("the leader ended before a follower could join: %v", err)
		case <-time.After(50 * time.Microsecond):
		}
	}
	var ferr error
	d := p.rec.do("service", "Service.Do/dedup follower", func() { _, ferr = env.svc.Do(ctx, req) })
	err := errors.Join(<-lead, ferr)
	if err == nil && reg.Get(trace.CtrServiceDedupJoined) != joined+1 {
		err = fmt.Errorf("the follower did not join the in-flight run")
	}
	return d, err
}

// lint loads the tree as hetlint ./... does, runs all analyzers as one
// parallel pass, then each analyzer alone and serially.
func (p *prober) lint() error {
	var pkgs []*analysis.Package
	var err error
	p.b.set("lint.load_ms", p.rec.do("analysis", "Load ./...", func() {
		var l *analysis.Loader
		if l, err = analysis.NewLoader(p.b.root); err == nil {
			pkgs, err = l.Load(p.b.root, []string{"./..."})
		}
	}), 1)
	if err != nil {
		return err
	}
	all := analysis.Analyzers()
	var findings []analysis.Finding
	p.b.set("lint.analyze_ms", p.rec.do("analysis", "RunAnalyzersParallel", func() {
		findings = analysis.RunAnalyzersParallel(pkgs, all, p.b.jobs)
	}), 1)
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	for _, key := range analyzerKeys {
		// An analyzer folded into another costs nothing of its own.
		d := 0.0
		if a, ok := byName[key]; ok {
			d = p.rec.do("analysis", "RunAnalyzers/"+key, func() { analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{a}) })
		}
		p.b.set("lint.analyzer_ms."+key, d, 1)
	}
	lines := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			lines += pkg.Fset.File(f.Pos()).LineCount()
		}
	}
	p.b.set("lint.packages", float64(len(pkgs)), 0)
	p.b.set("lint.go_lines", float64(lines), 0)
	p.b.set("lint.findings", float64(len(findings)), 0)
	var ferr error
	if len(findings) > 0 {
		ferr = fmt.Errorf("%d findings, first: %s", len(findings), findings[0])
	}
	p.probe("analysis", ferr)
	return nil
}
