package comd

import (
	"math"
	"testing"
	"testing/quick"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/sim/timing"
)

func TestMinImage(t *testing.T) {
	const L = 10.0
	cases := []struct{ d, want float64 }{
		{0, 0},
		{3, 3},
		{-3, -3},
		{6, -4}, // wraps to the nearer image
		{-6, 4},
		{4.999, 4.999},
	}
	for _, c := range cases {
		if got := minImage(c.d, L); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("minImage(%g) = %g, want %g", c.d, got, c.want)
		}
	}
}

func TestQuickMinImageBounds(t *testing.T) {
	// minImage's domain is differences of in-box coordinates, |d| < L.
	f := func(a int16) bool {
		l := 7.3
		d := (float64(a) / 32768) * l * 0.999
		m := minImage(d, l)
		return m >= -l/2-1e-12 && m <= l/2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Atoms across the periodic boundary must interact: the force on a
// lattice-edge atom vanishes only because its periodic neighbors balance
// the interior ones. Deleting periodicity would leave it unbalanced, so
// a balanced edge atom is direct evidence the wrap works.
func TestPeriodicNeighborsBalanceEdgeAtoms(t *testing.T) {
	s := NewState(Config{Nx: 4, Ny: 4, Nz: 4, Iters: 1})
	// Atom 0 sits at the origin corner — every one of its neighbor
	// shells is reached through the periodic wrap.
	fx, fy, fz, pe, visited := s.ljForceAtom(0)
	if visited < 100 {
		t.Fatalf("corner atom visited only %d neighbors; wrap broken", visited)
	}
	if f := math.Sqrt(fx*fx + fy*fy + fz*fz); f > 1e-8 {
		t.Errorf("corner atom force = %g; periodic images unbalanced", f)
	}
	if pe >= 0 {
		t.Errorf("corner atom PE = %g, want negative (bound lattice)", pe)
	}
}

func TestCellIndexWraps(t *testing.T) {
	s := NewState(Config{Nx: 4, Ny: 4, Nz: 4, Iters: 1})
	// Positions at or beyond the box edge must clamp to valid cells.
	if c := s.cellIndex(s.Lx-1e-12, 0, 0); c < 0 || int(c) >= s.numCells() {
		t.Errorf("edge position mapped to cell %d", c)
	}
	if c := s.cellIndex(0, 0, 0); c != 0 {
		t.Errorf("origin mapped to cell %d, want 0", c)
	}
	// Every cell's neighbor list has exactly 27 entries in range.
	for c := 0; c < s.numCells(); c++ {
		for k := 0; k < 27; k++ {
			n := s.CellNeighbors[c*27+k]
			if n < 0 || int(n) >= s.numCells() {
				t.Fatalf("cell %d neighbor %d out of range: %d", c, k, n)
			}
		}
	}
}

// Positions stay in the box after many integration steps.
func TestPositionsStayInBox(t *testing.T) {
	p := NewProblem(Config{Nx: 4, Ny: 4, Nz: 4, Iters: 30}, timing.Double)
	s := NewState(p.Cfg)
	p.run(new(appcore.Recorder), s, false)
	for i := range s.X {
		if s.X[i] < 0 || s.X[i] >= s.Lx || s.Y[i] < 0 || s.Y[i] >= s.Ly || s.Z[i] < 0 || s.Z[i] >= s.Lz {
			t.Fatalf("atom %d escaped the box: (%g,%g,%g)", i, s.X[i], s.Y[i], s.Z[i])
		}
	}
}
