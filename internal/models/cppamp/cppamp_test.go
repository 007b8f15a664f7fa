package cppamp

import (
	"testing"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

func spec() modelapi.KernelSpec {
	return modelapi.KernelSpec{Name: "pfe", Class: modelapi.Streaming, MissRate: 0.8, Coalesce: 1}
}

// Figure 6 flow: wrap data in views, parallel_for_each over an extent,
// synchronize. Views must stage in once and sync back once on the dGPU.
func TestViewSyncSemanticsOnDGPU(t *testing.T) {
	m := sim.NewDGPU()
	rt := New(m)
	const n = 1 << 12
	in := rt.NewArrayView("in", n*64*8)
	out := rt.NewArrayView("out", n*8)

	data := make([]float64, n*64)
	res := make([]float64, n)
	for i := range data {
		data[i] = 0.5
	}
	body := func(w *exec.WorkItem) {
		sum := 0.0
		for j := 0; j < 64; j++ {
			sum += data[w.Global*64+j]
		}
		res[w.Global] = sum
		w.Tally(0, exec.Counters{SPFlops: 64, LoadBytes: 512, StoreBytes: 8, Instrs: 130})
	}

	rt.Launch(spec(), NewExtent(n), []*ArrayView{in, out}, exec.Measure(n, body)[0])
	if !in.onDevice || !out.onDevice {
		t.Fatal("views not device-fresh after launch")
	}
	st := m.Link().Stats()
	if st.TransfersToDevice != 2 {
		t.Errorf("staged %d views, want 2", st.TransfersToDevice)
	}

	// Second launch: no re-staging (device already fresh).
	rt.Launch(spec(), NewExtent(n), []*ArrayView{in, out}, exec.Measure(n, body)[0])
	if m.Link().Stats().TransfersToDevice != 2 {
		t.Error("second launch re-staged device-fresh views")
	}

	// Synchronize copies back; both views (no read-only analysis in
	// CLAMP 0.6) must round-trip if the host touches them.
	if tns := out.Synchronize(); tns <= 0 {
		t.Error("synchronize of device-fresh view cost nothing on dGPU")
	}
	if out.onDevice {
		t.Error("view still device-fresh after Synchronize")
	}
	if out.Synchronize() != 0 {
		t.Error("second Synchronize not free")
	}
	if res[0] != 32 {
		t.Errorf("functional result %g, want 32", res[0])
	}

	// Host write invalidates: next launch re-stages.
	in.HostWrite()
	rt.Launch(spec(), NewExtent(n), []*ArrayView{in, out}, exec.Measure(n, body)[0])
	if m.Link().Stats().TransfersToDevice < 4 {
		t.Error("host-dirty views not re-staged")
	}
}

func TestAPUCopiesFree(t *testing.T) {
	rt := New(sim.NewAPU())
	v := rt.NewArrayView("v", 1<<20)
	rt.Launch(spec(), NewExtent(256), []*ArrayView{v}, exec.Counters{SPFlops: 1, Instrs: 1})
	if v.Synchronize() != 0 {
		t.Error("APU synchronize cost time")
	}
	if rt.Machine().TransferNs() != 0 {
		t.Error("APU charged transfer time")
	}
}

// A tiled parallel_for_each's body tallies the tile_static traffic its
// tiles cause; the launch charges that traffic as LDS time and still
// stages the captured views.
func TestTiledParallelForEach(t *testing.T) {
	m := sim.NewDGPU()
	rt := New(m)
	const tile, groups = 64, 8
	v := rt.NewArrayView("v", tile*groups*8)
	per := exec.Counters{SPFlops: tile, LoadBytes: 8, LDSBytes: 8 * (tile + 1), StoreBytes: 8, Instrs: tile}
	r := rt.Launch(modelapi.KernelSpec{Name: "tiled", Class: modelapi.Regular, MissRate: 0.3, Coalesce: 1},
		NewExtent(tile*groups), []*ArrayView{v}, per)
	if r.TimeNs <= 0 || r.LDSNs <= 0 {
		t.Errorf("tiled launch charged %g ns, %g ns of it LDS; want both positive", r.TimeNs, r.LDSNs)
	}
	if !v.onDevice || m.Link().Stats().TransfersToDevice != 1 {
		t.Error("tiled launch did not stage its captured view")
	}
}

// The LULESH compiler-bug path: a host-fallback kernel forces all captured
// views to round-trip every iteration on the dGPU.
func TestHostFallbackForcesRoundTrips(t *testing.T) {
	m := sim.NewDGPU()
	rt := New(m)
	v := rt.NewArrayView("forces", 8<<20)

	per := exec.Counters{SPFlops: 10, Instrs: 10}
	views := []*ArrayView{v}
	for iter := 0; iter < 3; iter++ {
		rt.Launch(spec(), NewExtent(1024), views, per)
		rt.LaunchHostFallback(modelapi.KernelSpec{Name: "k28", Class: modelapi.Regular, MissRate: 0.2, Coalesce: 1}, 1024, views, per)
	}
	st := m.Link().Stats()
	// Each iteration: h2d before the GPU kernel (view host-fresh after
	// fallback) and d2h before the CPU kernel.
	if st.TransfersToDevice != 3 || st.TransfersFromDevice != 3 {
		t.Errorf("round trips = %d/%d, want 3/3", st.TransfersToDevice, st.TransfersFromDevice)
	}
}

func TestReplayPreservesStaging(t *testing.T) {
	m := sim.NewDGPU()
	rt := New(m)
	v := rt.NewArrayView("v", 4096)
	views := []*ArrayView{v}
	per := exec.Counters{SPFlops: 2, LoadBytes: 8, Instrs: 4}
	rt.Launch(spec(), NewExtent(1024), views, exec.Measure(1024, func(w *exec.WorkItem) { w.Tally(0, per) })[0])
	v.Synchronize()
	rt.Launch(spec(), NewExtent(1024), views, per)
	if got := m.Link().Stats().TransfersToDevice; got != 2 {
		t.Errorf("replay after a host sync made %d h2d copies in total, want 2", got)
	}
	before := m.ElapsedNs()
	rt.Launch(spec(), NewExtent(1024), views, per)
	if m.ElapsedNs() <= before {
		t.Error("replay charged no kernel time")
	}
	if got := m.Link().Stats().TransfersToDevice; got != 2 {
		t.Errorf("replay re-staged a device-fresh view: %d h2d copies, want 2", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	rt := New(sim.NewAPU())
	cases := []func(){
		func() { NewExtent(0) },
		func() { rt.NewArrayView("v", -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAccessors(t *testing.T) {
	m := sim.NewAPU()
	rt := New(m)
	if rt.Machine() != m {
		t.Error("Machine() wrong")
	}
	v := rt.NewArrayView("v", 128)
	if v.bytes != 128 {
		t.Error("view size wrong")
	}
}
