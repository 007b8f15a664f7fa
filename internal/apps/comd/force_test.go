package comd

import (
	"fmt"
	"math"
	"testing"

	"hetbench/internal/apps/appcore"
)

// oracleForceAtom is the force loop without the cell-box test: it scans
// every atom of all 27 neighbor cells and counts each one it visits.
// ljForceAtom is held to it bit for bit.
func oracleForceAtom(s *State, i int) (fx, fy, fz, pe float64, visited int) {
	const rc2 = cutoff * cutoff
	ir6 := 1 / (rc2 * rc2 * rc2)
	eShift := 4 * (ir6*ir6 - ir6)

	xi, yi, zi := s.X[i], s.Y[i], s.Z[i]
	ci := s.CellOf[i]
	for k := 0; k < 27; k++ {
		cell := s.CellNeighbors[int(ci)*27+k]
		lo, hi := s.CellStart[cell], s.CellStart[cell+1]
		for a := lo; a < hi; a++ {
			j := s.CellAtoms[a]
			if int(j) == i {
				continue
			}
			dx := minImage(xi-s.X[j], s.Lx)
			dy := minImage(yi-s.Y[j], s.Ly)
			dz := minImage(zi-s.Z[j], s.Lz)
			r2 := dx*dx + dy*dy + dz*dz
			visited++
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			fOverR := 24 * (2*inv6*inv6 - inv6) * inv2
			fx += fOverR * dx
			fy += fOverR * dy
			fz += fOverR * dz
			pe += 0.5 * (4*(inv6*inv6-inv6) - eShift)
		}
	}
	return fx, fy, fz, pe, visited
}

// checkForces runs the force kernel on s (Forces, which refreshes the
// cell boxes) and compares every atom's stored force and energy, and the
// pairs ljForceAtom counts, with the oracle bit for bit.
func checkForces(t testing.TB, s *State) {
	t.Helper()
	s.Forces()
	checkStored(t, s)
}

// checkStored compares the forces and energies stored in s, and the pairs
// ljForceAtom counts, with the oracle bit for bit.
func checkStored(t testing.TB, s *State) {
	t.Helper()
	for i := range s.X {
		_, _, _, _, visited := s.ljForceAtom(i)
		fx, fy, fz, pe, ovisited := oracleForceAtom(s, i)
		if math.Float64bits(s.Fx[i]) != math.Float64bits(fx) || math.Float64bits(s.Fy[i]) != math.Float64bits(fy) ||
			math.Float64bits(s.Fz[i]) != math.Float64bits(fz) || math.Float64bits(s.PE[i]) != math.Float64bits(pe) || visited != ovisited {
			t.Fatalf("atom %d at (%v, %v, %v) in cell %d: got (%v, %v, %v, %v, %d), oracle (%v, %v, %v, %v, %d)",
				i, s.X[i], s.Y[i], s.Z[i], s.CellOf[i], s.Fx[i], s.Fy[i], s.Fz[i], s.PE[i], visited, fx, fy, fz, pe, ovisited)
		}
	}
}

// skippedShare is the share of the atoms' neighbor cells whose boxes lie
// beyond the cutoff, which ljForceAtom skips.
func skippedShare(s *State) float64 {
	skipped := 0
	for i := range s.X {
		for _, c := range s.CellNeighbors[int(s.CellOf[i])*27 : int(s.CellOf[i])*27+27] {
			b := &s.boxes[c]
			gx := axisGap(s.X[i], b.lo[0], b.hi[0], s.Lx)
			gy := axisGap(s.Y[i], b.lo[1], b.hi[1], s.Ly)
			gz := axisGap(s.Z[i], b.lo[2], b.hi[2], s.Lz)
			if gx*gx+gy*gy+gz*gz >= cutoff*cutoff {
				skipped++
			}
		}
	}
	return float64(skipped) / float64(27*len(s.X))
}

// wrapAcross moves every atom within d of the low x, y or z face across
// it, to the far side of the box, without rebuilding the cells: CellOf
// then names a cell at the other end of the box from the atom.
func wrapAcross(s *State, d float64) (moved int) {
	for i := range s.X {
		for _, a := range []struct {
			v *float64
			l float64
		}{{&s.X[i], s.Lx}, {&s.Y[i], s.Ly}, {&s.Z[i], s.Lz}} {
			if *a.v < d {
				*a.v = math.Mod(*a.v-d+a.l, a.l)
				moved++
			}
		}
	}
	return moved
}

// TestForceMatchesOracle holds ljForceAtom to the all-cells oracle on the
// smoke, small and default lattices and on 4³ (3 cells per axis, each
// narrower than the cutoff): on the fresh lattice, after the functional
// pass's integration steps with no rebuild, and with atoms moved across
// the box edge.
func TestForceMatchesOracle(t *testing.T) {
	for _, n := range []int{4, 6, 8, 12} {
		t.Run(fmt.Sprintf("x%d", n), func(t *testing.T) {
			p := &Problem{Cfg: Config{Nx: n, Ny: n, Nz: n, Iters: rebuildEvery - 1}}
			s := NewState(p.Cfg)
			checkForces(t, s)
			if share := skippedShare(s); n >= 6 && share < 0.2 {
				t.Errorf("box test skips %.0f%% of neighbor cells on the fresh lattice, want at least 20%%", 100*share)
			}
			// The pass's last force launch ran at its final positions.
			p.run(new(appcore.Recorder), s)
			checkStored(t, s)
			if wrapAcross(s, 0.3) == 0 {
				t.Fatal("no atom moved across the box edge")
			}
			checkForces(t, s)
		})
	}
}

// FuzzLJForce displaces every atom of a fuzz-sized lattice by a random
// vector, wraps it into the box, optionally rebuilds the link cells, and
// holds ljForceAtom to the all-cells oracle for every atom.
func FuzzLJForce(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2), uint64(1), uint16(0), false)
	f.Add(uint8(4), uint8(3), uint8(5), uint64(7), uint16(2000), false)
	f.Add(uint8(6), uint8(6), uint8(6), uint64(42), uint16(65535), true)
	f.Add(uint8(2), uint8(6), uint8(3), uint64(9), uint16(30000), false)
	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, seed uint64, amp uint16, rebuild bool) {
		s := NewState(Config{Nx: 2 + int(nx%5), Ny: 2 + int(ny%5), Nz: 2 + int(nz%5), Iters: 1})
		// Displacements up to amp/65535 of a cutoff per axis, enough to
		// carry the atoms near an edge across it.
		scale := float64(amp) / math.MaxUint16 * cutoff
		rng := seed
		next := func() float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return float64(rng>>11)/float64(1<<53)*2 - 1
		}
		wrap := func(x, l float64) float64 {
			x = math.Mod(x, l)
			if x < 0 {
				x += l
			}
			return x
		}
		for i := range s.X {
			s.X[i] = wrap(s.X[i]+scale*next(), s.Lx)
			s.Y[i] = wrap(s.Y[i]+scale*next(), s.Ly)
			s.Z[i] = wrap(s.Z[i]+scale*next(), s.Lz)
		}
		if rebuild {
			s.RebuildCells()
		}
		checkForces(t, s)
	})
}
