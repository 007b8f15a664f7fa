package sched

import (
	"testing"

	"hetbench/internal/fault"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// streamCost is a memory-bound launch shaped like the read-benchmark: the
// workload class the co-execution literature splits first.
func streamCost(items int) timing.KernelCost {
	return timing.KernelCost{
		Items: items, SPFlops: 64, LoadBytes: 512, StoreBytes: 8,
		Instrs: 132, MissRate: 0.9, Coalesce: 1, VecEff: 1,
	}
}

// streamHost costs streamCost's host side for LaunchKernelSplit.
func streamHost(items int) func() timing.KernelCost {
	return func() timing.KernelCost { return streamCost(items) }
}

func launch(items int) sim.CoexecLaunch {
	return sim.CoexecLaunch{Name: "k", Accel: streamCost(items), Host: streamCost(items)}
}

// split runs one launch on a fresh machine under the config and returns
// (makespan, stats).
func split(t *testing.T, mk func() *sim.Machine, cfg Config, items int) (float64, Stats) {
	t.Helper()
	s := New(cfg)
	m := mk()
	m.SetCoexec(s)
	r, ok := m.LaunchKernelSplit("k", streamCost(items), streamHost(items))
	if !ok {
		t.Fatal("split launch not routed to the scheduler")
	}
	if got := m.ElapsedNs(); got != r.TimeNs {
		t.Fatalf("clock %g ns vs merged result %g ns", got, r.TimeNs)
	}
	return r.TimeNs, s.Stats()
}

func machines() map[string]func() *sim.Machine {
	return map[string]func() *sim.Machine{"APU": sim.NewAPU, "dGPU": sim.NewDGPU}
}

// Static with the roofline-derived fraction must give both devices work
// and finish no later than either device alone.
func TestStaticRooflineSplit(t *testing.T) {
	const items = 1 << 14
	for name, mk := range machines() {
		t.Run(name, func(t *testing.T) {
			m := mk()
			accelOnly := m.AcceleratorModel().Kernel(streamCost(items)).TimeNs
			hostOnly := m.HostModel().Kernel(streamCost(items)).TimeNs
			wall, st := split(t, mk, Config{Policy: Static}, items)
			if st.HostItems == 0 || st.AccelItems == 0 {
				t.Fatalf("static split left a device idle: %+v", st)
			}
			if st.HostItems+st.AccelItems != items {
				t.Fatalf("split covers %d items, want %d", st.HostItems+st.AccelItems, items)
			}
			if wall >= accelOnly || wall >= hostOnly {
				t.Errorf("co-executed %g ns, not faster than accel-only %g / host-only %g", wall, accelOnly, hostOnly)
			}
		})
	}
}

func TestStaticFixedFraction(t *testing.T) {
	const items = 1 << 14
	_, st := split(t, sim.NewDGPU, Config{Policy: Static, HostFraction: 0.25}, items)
	if got := st.HostShare(); got < 0.24 || got > 0.26 {
		t.Errorf("host share %g, want ~0.25", got)
	}
}

// Dynamic must beat the worst fixed static split: the greedy queue never
// parks a large fraction on the slow device.
func TestDynamicBeatsWorstStatic(t *testing.T) {
	const items = 1 << 14
	for name, mk := range machines() {
		t.Run(name, func(t *testing.T) {
			worst := 0.0
			for _, frac := range []float64{0.25, 0.75} {
				wall, _ := split(t, mk, Config{Policy: Static, HostFraction: frac}, items)
				if wall > worst {
					worst = wall
				}
			}
			dyn, st := split(t, mk, Config{Policy: Dynamic}, items)
			if dyn >= worst {
				t.Errorf("dynamic %g ns not better than worst static %g ns", dyn, worst)
			}
			if st.Chunks < 2 {
				t.Errorf("dynamic booked %d chunks, want a carved queue", st.Chunks)
			}
		})
	}
}

// Chunks are wavefront-aligned except the final remainder.
func TestDynamicWavefrontAlignment(t *testing.T) {
	const items = 1<<12 + 17
	s := New(Config{Policy: Dynamic})
	m := sim.NewDGPU()
	wf := m.Accelerator().WavefrontSize
	tr := trace.New()
	m.SetTracer(tr)
	m.SetCoexec(s)
	if _, ok := m.LaunchKernelSplit("k", streamCost(items), streamHost(items)); !ok {
		t.Fatal("not routed")
	}
	var sum, offWave int
	for _, sp := range tr.Spans() {
		if sp.Kind != trace.KindKernel {
			continue
		}
		sum += sp.Items
		if sp.Items%wf != 0 {
			offWave++
		}
	}
	if sum != items {
		t.Fatalf("chunk items sum to %d, want %d", sum, items)
	}
	if offWave > 1 {
		t.Errorf("%d chunks off wavefront alignment, want at most the remainder", offWave)
	}
}

// HGuided shrinks chunks as the queue drains and still covers all items.
func TestHGuidedShrinksChunks(t *testing.T) {
	const items = 1 << 14
	s := New(Config{Policy: HGuided})
	m := sim.NewDGPU()
	tr := trace.New()
	m.SetTracer(tr)
	m.SetCoexec(s)
	if _, ok := m.LaunchKernelSplit("k", streamCost(items), streamHost(items)); !ok {
		t.Fatal("not routed")
	}
	var sizes []int
	sum := 0
	for _, sp := range tr.Spans() {
		if sp.Kind == trace.KindKernel {
			sizes = append(sizes, sp.Items)
			sum += sp.Items
		}
	}
	if sum != items {
		t.Fatalf("chunk items sum to %d, want %d", sum, items)
	}
	if len(sizes) < 3 {
		t.Fatalf("only %d chunks; hguided should carve several", len(sizes))
	}
	if first, last := sizes[0], sizes[len(sizes)-1]; last >= first {
		t.Errorf("chunks grew from %d to %d items; hguided must shrink", first, last)
	}
	// Makespan sanity: still beats the accelerator alone.
	accelOnly := sim.NewDGPU().AcceleratorModel().Kernel(streamCost(items)).TimeNs
	if got := m.ElapsedNs(); got >= accelOnly {
		t.Errorf("hguided %g ns, accel-only %g ns", got, accelOnly)
	}
}

// Two identical runs must make identical decisions — the determinism the
// coexec experiment's bit-reproducibility contract rests on.
func TestSchedulerDeterminism(t *testing.T) {
	for _, pol := range []Policy{Static, Dynamic, HGuided} {
		w1, s1 := split(t, sim.NewDGPU, Config{Policy: pol}, 1<<14)
		w2, s2 := split(t, sim.NewDGPU, Config{Policy: pol}, 1<<14)
		if w1 != w2 || s1 != s2 {
			t.Errorf("%v: runs diverge (%g vs %g ns, %+v vs %+v)", pol, w1, w2, s1, s2)
		}
	}
}

// With the accelerator inside a device-loss window, pending chunks migrate
// to the host instead of triggering the whole-launch fallback path: every
// chunk span lands on the host track, and Stats counts each chunk taken
// from the accelerator as migrated.
func TestDeviceLossMigratesChunksToHost(t *testing.T) {
	for _, pol := range []Policy{Static, Dynamic, HGuided} {
		m := sim.NewDGPU()
		inj := fault.New(fault.Config{Seed: 1, DeviceLossRate: 0.75, DeviceLossNs: 1e12})
		m.SetFaultInjector(inj, fault.DefaultPolicy())
		// Open a loss window deterministically before the split launch.
		opened := false
		for i := 0; i < 1000 && !opened; i++ {
			opened = inj.Launch(0) == fault.DeviceLost
		}
		if !opened {
			t.Fatal("no device loss drawn in 1000 tries at a 0.75 rate")
		}
		s := New(Config{Policy: pol})
		tr := trace.New()
		m.SetTracer(tr)
		m.SetCoexec(s)
		if _, ok := m.LaunchKernelSplit("k", streamCost(1<<12), streamHost(1<<12)); !ok {
			t.Fatal("not routed")
		}
		st := s.Stats()
		chunks := tracedChunks(tr, "k")
		if len(chunks) == 0 {
			t.Fatalf("%v: no chunk spans traced", pol)
		}
		for _, c := range chunks {
			if c.t != sim.OnHost {
				t.Errorf("%v: chunk %+v ran off-host during a loss window", pol, c)
			}
		}
		// Static books the host's own share as well; only the
		// accelerator's chunk migrates.
		want := len(chunks)
		if pol == Static {
			want = 1
		}
		if st.Migrated != want {
			t.Errorf("%v: %d of %d chunks recorded as migrated, want %d", pol, st.Migrated, len(chunks), want)
		}
		if st.AccelItems != 0 {
			t.Errorf("%v: %d items ran on a lost accelerator", pol, st.AccelItems)
		}
		if st.HostItems != 1<<12 {
			t.Errorf("%v: host ran %d items, want all %d", pol, st.HostItems, 1<<12)
		}
	}
}

// The scheduler publishes its decisions into the trace registry.
func TestSchedCounters(t *testing.T) {
	s := New(Config{Policy: Dynamic})
	m := sim.NewDGPU()
	tr := trace.New()
	m.SetTracer(tr)
	m.SetCoexec(s)
	m.LaunchKernelSplit("k", streamCost(1<<14), streamHost(1<<14))
	reg := tr.Metrics()
	st := s.Stats()
	if got := reg.Get(trace.CtrSchedChunks); got != float64(st.Chunks) {
		t.Errorf("sched.chunks counter %g vs stats %d", got, st.Chunks)
	}
	if got := reg.Get(trace.CtrSchedHostItems) + reg.Get(trace.CtrSchedAccelItems); got != 1<<14 {
		t.Errorf("item counters sum to %g, want %d", got, 1<<14)
	}
	if reg.Get(trace.CtrSchedSplits) != 1 {
		t.Errorf("sched.splits = %g, want 1", reg.Get(trace.CtrSchedSplits))
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{HostFraction: 1.5},
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
		New(Config{HostFraction: 2})
	}()
}

// Shares is the proportional-split rule shared with internal/fleet: it
// must normalize, ignore junk rates, and fall back to uniform.
func TestShares(t *testing.T) {
	got := Shares([]float64{3, 1})
	if got[0] != 0.75 || got[1] != 0.25 {
		t.Errorf("Shares(3,1) = %v, want [0.75 0.25]", got)
	}
	got = Shares([]float64{2, 0, -1, 2})
	if got[0] != 0.5 || got[1] != 0 || got[2] != 0 || got[3] != 0.5 {
		t.Errorf("Shares with junk rates = %v, want [0.5 0 0 0.5]", got)
	}
	got = Shares([]float64{0, -3})
	if got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("Shares with no positive rate = %v, want uniform", got)
	}
	sum := 0.0
	for _, s := range Shares([]float64{1, 2, 3, 4, 5}) {
		sum += s
	}
	if diff := sum - 1; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Shares sum = %v, want 1", sum)
	}
}
