package sched

import (
	"math/rand"
	"strings"
	"testing"

	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// randomCost draws a valid kernel-cost shape: anything from tiny
// compute-bound stencils to scattered memory-bound gathers.
func randomCost(rng *rand.Rand, items int) timing.KernelCost {
	return timing.KernelCost{
		Items:          items,
		SPFlops:        rng.Float64() * 64,
		DPFlops:        rng.Float64() * 16,
		LoadBytes:      1 + rng.Float64()*512,
		StoreBytes:     rng.Float64() * 64,
		LDSBytes:       rng.Float64() * 32,
		Instrs:         1 + rng.Float64()*256,
		MissRate:       rng.Float64(),
		Coalesce:       1.0/16 + rng.Float64()*15.0/16,
		VecEff:         0.25 + rng.Float64()*0.75,
		MemEff:         0.25 + rng.Float64()*0.75,
		SerialFraction: rng.Float64() * 0.5,
	}
}

// bookedChunk is one chunk as the machine traced it: its device, from the
// span's track, and its item count.
type bookedChunk struct {
	t sim.Target
	n int
}

// tracedChunks returns the chunks of the split launch name, in booking
// order, from the kernel spans named "name#acc<n>" and "name#cpu<n>".
func tracedChunks(tr *trace.Tracer, name string) []bookedChunk {
	var out []bookedChunk
	for _, sp := range tr.Spans() {
		if sp.Kind != trace.KindKernel || !strings.HasPrefix(sp.Name, name+"#") {
			continue
		}
		c := bookedChunk{t: sim.OnAccelerator, n: sp.Items}
		if sp.Track == trace.TrackHost {
			c.t = sim.OnHost
		}
		out = append(out, c)
	}
	return out
}

// TestPartitionProperties drives every policy over random kernel shapes and
// checks the invariants the co-execution results rest on:
//
//   - exact coverage: the booked chunks partition the iteration space (no
//     item lost, none run twice), and Stats agrees with the traced chunks;
//   - wavefront alignment: at most one chunk per launch carries a partial
//     wavefront (the remainder), whenever the launch spans at least one;
//   - bounded makespan: the merged wall time never exceeds the slower
//     device running the whole launch alone plus per-chunk launch slack —
//     splitting can be useless on degenerate shapes, but never ruinous.
func TestPartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	machines := []func() *sim.Machine{sim.NewAPU, sim.NewDGPU}
	policies := []Policy{Static, Dynamic, HGuided}

	for trial := 0; trial < 50; trial++ {
		items := 1 + rng.Intn(1<<16)
		mk := machines[rng.Intn(len(machines))]
		cost := randomCost(rng, items)
		for _, pol := range policies {
			s := New(Config{Policy: pol})
			m := mk()
			tr := trace.New()
			m.SetTracer(tr)
			m.SetCoexec(s)
			r, ok := m.LaunchKernelSplit("prop", cost, func() timing.KernelCost { return cost })
			if !ok {
				t.Fatalf("trial %d %v: split launch not routed", trial, pol)
			}
			chunks := tracedChunks(tr, "prop")

			// Coverage: chunks partition the launch exactly, per device and
			// in total, and the trace shows every booking.
			var sum int
			byTarget := map[sim.Target]int64{}
			offWave := 0
			wf := m.Accelerator().WavefrontSize
			for _, c := range chunks {
				if c.n <= 0 {
					t.Fatalf("trial %d %v: empty chunk booked: %+v", trial, pol, c)
				}
				sum += c.n
				byTarget[c.t] += int64(c.n)
				if c.n%wf != 0 {
					offWave++
				}
			}
			if sum != items {
				t.Fatalf("trial %d %v (%d items): chunks sum to %d", trial, pol, items, sum)
			}
			st := s.Stats()
			if st.Migrated != 0 {
				t.Fatalf("trial %d %v: %d chunks migrated with no fault injector", trial, pol, st.Migrated)
			}
			if st.HostItems != byTarget[sim.OnHost] || st.AccelItems != byTarget[sim.OnAccelerator] {
				t.Fatalf("trial %d %v: stats %+v disagree with traced chunks %v", trial, pol, st, byTarget)
			}
			if st.HostItems+st.AccelItems != int64(items) {
				t.Fatalf("trial %d %v: stats cover %d of %d items", trial, pol, st.HostItems+st.AccelItems, items)
			}
			if st.Chunks != len(chunks) {
				t.Fatalf("trial %d %v: %d chunk spans traced, stats counted %d", trial, pol, len(chunks), st.Chunks)
			}

			// Alignment: only the remainder may be off-wavefront.
			if items >= wf && offWave > 1 {
				t.Errorf("trial %d %v (%d items, wf %d): %d chunks off wavefront alignment",
					trial, pol, items, wf, offWave)
			}

			// Makespan: each device's busy time is at most running the whole
			// launch alone plus one launch overhead per chunk (a wf-sized
			// launch bounds the fixed cost), so the merged wall time is too.
			hostAlone := m.HostModel().Kernel(cost).TimeNs
			accelAlone := m.AcceleratorModel().Kernel(cost).TimeNs
			worstAlone := hostAlone
			if accelAlone > worstAlone {
				worstAlone = accelAlone
			}
			unit := m.HostModel().Kernel(chunkCost(cost, wf)).TimeNs
			if a := m.AcceleratorModel().Kernel(chunkCost(cost, wf)).TimeNs; a > unit {
				unit = a
			}
			if bound := worstAlone + float64(st.Chunks)*unit; r.TimeNs > bound {
				t.Errorf("trial %d %v (%d items): makespan %g ns exceeds bound %g ns (alone %g, %d chunks)",
					trial, pol, items, r.TimeNs, bound, worstAlone, st.Chunks)
			}
		}
	}
}
