package fleet

import (
	"reflect"
	"testing"

	"hetbench/internal/sched"
	"hetbench/internal/trace"
)

func testCluster(policy sched.Policy, lossRate float64) Config {
	return Config{
		APUs: 3, DGPUs: 1,
		Policy:         policy,
		Seed:           7,
		DeviceLossRate: lossRate,
	}
}

// testJobs generates a moderate-load trace: per-class service times are
// O(100µs–3ms) on the test cluster's four nodes, so 4000 jobs/s keeps
// utilization well below saturation while still building real queues.
func testJobs(n int) []Job {
	return Generate(TraceSpec{
		Shape: Poisson, Jobs: n, RatePerSec: 4e3,
		Mix: JobMix{Stream: 2, Compute: 1, Irregular: 1}, Seed: 7,
	})
}

// A fault-free run completes every job, sheds nothing and reports
// consistent per-node accounting.
func TestRunCompletesAll(t *testing.T) {
	for _, policy := range []sched.Policy{sched.Static, sched.Dynamic, sched.HGuided} {
		jobs := testJobs(500)
		r := New(testCluster(policy, 0)).Run(jobs)
		if r.Submitted != len(jobs) || r.Completed != len(jobs) {
			t.Fatalf("%v: submitted %d completed %d, want %d each", policy, r.Submitted, r.Completed, len(jobs))
		}
		if r.Shed != 0 || r.Migrated != 0 || r.NodeLosses != 0 {
			t.Fatalf("%v: fault-free run shed %d migrated %d losses %d", policy, r.Shed, r.Migrated, r.NodeLosses)
		}
		nodeJobs := 0
		for _, n := range r.Nodes {
			nodeJobs += n.Jobs
			if n.Util < 0 || n.Util > 1 {
				t.Errorf("%v: node %d utilization %g outside [0,1]", policy, n.ID, n.Util)
			}
		}
		if nodeJobs != len(jobs) {
			t.Errorf("%v: per-node jobs sum to %d, want %d", policy, nodeJobs, len(jobs))
		}
		if got := r.Sojourn.Count(); got != uint64(len(jobs)) {
			t.Errorf("%v: sojourn histogram holds %d observations, want %d", policy, got, len(jobs))
		}
		if r.Queue.Quantile(0.99) > r.Sojourn.Quantile(0.99) {
			t.Errorf("%v: queue p99 %g above sojourn p99 %g", policy, r.Queue.Quantile(0.99), r.Sojourn.Quantile(0.99))
		}
	}
}

// Equal (Config, trace) pairs reproduce the identical Result.
func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		return New(testCluster(sched.HGuided, 0.02)).Run(testJobs(800))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal configs and traces produced different results")
	}
	if a.NodeLosses == 0 {
		t.Fatal("loss-rate 0.02 run injected no device losses (test is vacuous)")
	}
}

// Device loss degrades jobs, never drops them: every submitted job still
// completes, migrations happen, and the tail is worse than fault-free.
func TestDeviceLossMigratesNotLoses(t *testing.T) {
	jobs := testJobs(800)
	clean := New(testCluster(sched.Dynamic, 0)).Run(jobs)
	faulty := New(testCluster(sched.Dynamic, 0.02)).Run(jobs)
	if faulty.NodeLosses == 0 || faulty.Migrated == 0 {
		t.Fatalf("loss run opened %d windows, migrated %d jobs; want both > 0", faulty.NodeLosses, faulty.Migrated)
	}
	// Every admitted job completes: migration degrades, never drops.
	if faulty.Completed+faulty.Shed != faulty.Submitted {
		t.Fatalf("loss run: completed %d + shed %d != submitted %d", faulty.Completed, faulty.Shed, faulty.Submitted)
	}
	if faulty.Completed <= faulty.Migrated {
		t.Fatalf("only %d completions for %d migrations", faulty.Completed, faulty.Migrated)
	}
	// Degradation shows in the exact mean (quantiles are bucketed, so a
	// modest shift can land in the same bucket).
	if faulty.Sojourn.Mean() <= clean.Sojourn.Mean() {
		t.Errorf("loss run mean sojourn %g not above fault-free mean %g", faulty.Sojourn.Mean(), clean.Sojourn.Mean())
	}
	wasted := 0.0
	for _, n := range faulty.Nodes {
		wasted += n.WastedNs
	}
	if wasted <= 0 {
		t.Error("migrations abandoned no partial service (expected wasted time > 0)")
	}
}

// A single-node cluster hit by a burst must overflow its QueueCap-deep
// queue and shed instead of queueing without bound.
func TestOverloadSheds(t *testing.T) {
	cfg := Config{APUs: 1, Policy: sched.Dynamic, Seed: 1}
	jobs := Generate(TraceSpec{Shape: Bursty, Jobs: 400, RatePerSec: 5e5, Seed: 1})
	r := New(cfg).Run(jobs)
	if r.Shed == 0 {
		t.Fatal("overloaded single node shed nothing")
	}
	if r.Completed+r.Shed != r.Submitted {
		t.Fatalf("completed %d + shed %d != submitted %d", r.Completed, r.Shed, r.Submitted)
	}
}

// The dynamic balancer must exploit node affinity: dGPU nodes win
// flop-bound jobs despite PCIe staging, APU nodes win bandwidth-bound
// jobs because staging dominates them. A single-class trace therefore
// concentrates on the matching kind.
func TestDynamicExploitsAffinity(t *testing.T) {
	share := func(mix JobMix) float64 {
		jobs := Generate(TraceSpec{Shape: Poisson, Jobs: 600, RatePerSec: 4e3, Mix: mix, Seed: 7})
		r := New(testCluster(sched.Dynamic, 0)).Run(jobs)
		dgpu := 0
		for _, n := range r.Nodes {
			if n.Kind == DGPU {
				dgpu += n.Jobs
			}
		}
		return float64(dgpu) / float64(r.Completed)
	}
	computeShare := share(JobMix{Compute: 1})
	streamShare := share(JobMix{Stream: 1})
	if computeShare <= streamShare {
		t.Errorf("dGPU served %.0f%% of compute jobs but %.0f%% of stream jobs; want compute-leaning",
			100*computeShare, 100*streamShare)
	}
}

// With Metrics set, the run publishes the fleet.* counters and both
// histograms into the registry, matching the Result exactly.
func TestMetricsPublishing(t *testing.T) {
	reg := &trace.Registry{}
	cfg := testCluster(sched.Static, 0.02)
	cfg.Metrics = reg
	r := New(cfg).Run(testJobs(400))
	checks := []struct {
		name string
		want int
	}{
		{trace.CtrFleetSubmitted, r.Submitted},
		{trace.CtrFleetCompleted, r.Completed},
		{trace.CtrFleetMigrated, r.Migrated},
		{trace.CtrFleetShed, r.Shed},
		{trace.CtrFleetNodeLosses, r.NodeLosses},
	}
	for _, c := range checks {
		if got := reg.Get(c.name); got != float64(c.want) {
			t.Errorf("%s = %g, want %d", c.name, got, c.want)
		}
	}
	if reg.Get(trace.CtrFleetBusyNs) <= 0 {
		t.Errorf("%s not published", trace.CtrFleetBusyNs)
	}
	h := reg.Hist(trace.HistFleetJobNs)
	if h == nil || h.Count() != r.Sojourn.Count() {
		t.Errorf("registry %s does not match result (got %v)", trace.HistFleetJobNs, h)
	}
	if q := reg.Hist(trace.HistFleetQueueNs); q == nil || q.Count() != r.Queue.Count() {
		t.Errorf("registry %s does not match result", trace.HistFleetQueueNs)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{},
		{APUs: -1, DGPUs: 2},
		{APUs: 1, DeviceLossRate: -0.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New did not panic on an invalid config")
			}
		}()
		New(Config{})
	}()
}
