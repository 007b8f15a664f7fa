package lulesh

import (
	"math"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

// The Sedov problem is symmetric under permutation of the coordinate
// axes (corner deposit, symmetric mesh, symmetric BCs): after any number
// of steps, swapping x↔y must map the solution onto itself with the
// velocity components swapped.
func TestSedovAxisSymmetry(t *testing.T) {
	const S = 6
	p := NewProblem(Config{S: S, Iters: 1}, timing.Double)
	s := NewState(p.Mesh)
	st := newStepper(s, timing.Double)
	d := &recDriver{rec: new(appcore.Recorder), functional: true}
	for i := 0; i < 20; i++ {
		st.step(d)
	}
	np := S + 1
	node := func(i, j, k int) int { return (k*np+j)*np + i }
	for k := 0; k < np; k++ {
		for j := 0; j < np; j++ {
			for i := 0; i < np; i++ {
				a, b := node(i, j, k), node(j, i, k)
				if d := math.Abs(s.Xd[a] - s.Yd[b]); d > 1e-9*(math.Abs(s.Xd[a])+1e-300) && d > 1e-15 {
					t.Fatalf("x↔y symmetry broken at (%d,%d,%d): xd=%g vs yd=%g", i, j, k, s.Xd[a], s.Yd[b])
				}
				if d := math.Abs(s.Zd[a] - s.Zd[b]); d > 1e-9*(math.Abs(s.Zd[a])+1e-300) && d > 1e-15 {
					t.Fatalf("z symmetry broken at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	// Element energy symmetric too: E(i,j,k) == E(j,i,k).
	elem := func(i, j, k int) int { return (k*S+j)*S + i }
	for k := 0; k < S; k++ {
		for j := 0; j < S; j++ {
			for i := 0; i < S; i++ {
				a, b := elem(i, j, k), elem(j, i, k)
				if d := math.Abs(s.E[a] - s.E[b]); d > 1e-9*math.Abs(s.E[a])+1e-15 {
					t.Fatalf("energy symmetry broken at (%d,%d,%d): %g vs %g", i, j, k, s.E[a], s.E[b])
				}
			}
		}
	}
}

// With zero velocities everywhere, the kinematics kernels must report
// unchanged volumes and zero strain rates.
func TestQuiescentStateIsStationary(t *testing.T) {
	p := NewProblem(Config{S: 4, Iters: 1}, timing.Double)
	s := NewState(p.Mesh)
	s.E[0] = 0 // remove the deposit: nothing should move
	st := newStepper(s, timing.Double)
	d := &recDriver{rec: new(appcore.Recorder), functional: true}
	for i := 0; i < 5; i++ {
		st.step(d)
	}
	for e := range s.V {
		if math.Abs(s.V[e]-1) > 1e-12 {
			t.Fatalf("element %d volume drifted to %g with no energy", e, s.V[e])
		}
	}
	for n := range s.Xd {
		if s.Xd[n] != 0 || s.Yd[n] != 0 || s.Zd[n] != 0 {
			t.Fatalf("node %d moved with no energy", n)
		}
	}
}

// The blast front must move outward: after enough steps, elements near
// the origin have gained energy/pressure relative to far elements.
func TestBlastPropagatesOutward(t *testing.T) {
	const S = 8
	p := NewProblem(Config{S: S, Iters: 1}, timing.Double)
	s := NewState(p.Mesh)
	st := newStepper(s, timing.Double)
	d := &recDriver{rec: new(appcore.Recorder), functional: true}
	for i := 0; i < 60; i++ {
		st.step(d)
	}
	// Neighbor of the origin element along +x picked up pressure; the
	// far corner is still quiet.
	if s.P[1] <= 0 {
		t.Errorf("element 1 pressure = %g, want > 0 (front reached it)", s.P[1])
	}
	far := S*S*S - 1
	if s.P[far] > s.P[1]*0.5 {
		t.Errorf("far corner pressure %g vs near %g: front arrived too fast", s.P[far], s.P[1])
	}
	// The origin element expanded (volume > 1).
	if s.V[0] <= 1 {
		t.Errorf("origin element volume = %g, want expansion > 1", s.V[0])
	}
}

func TestHCMatchesOtherModels(t *testing.T) {
	p := NewProblem(Config{S: 8, Iters: 6, FunctionalIters: 2}, timing.Double)
	ref := p.RunOpenCL(sim.NewDGPU())
	hc := p.RunHC(sim.NewDGPU())
	if hc.Checksum != ref.Checksum {
		t.Errorf("HC checksum %g != OpenCL %g", hc.Checksum, ref.Checksum)
	}
	// HC must not be slower than C++ AMP on the dGPU (no fallback, no
	// view round-trips).
	amp := p.RunCppAMP(sim.NewDGPU())
	if hc.ElapsedNs >= amp.ElapsedNs {
		t.Errorf("HC %.2fms not faster than AMP %.2fms", hc.ElapsedNs/1e6, amp.ElapsedNs/1e6)
	}
}
