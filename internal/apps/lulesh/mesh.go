// Package lulesh implements a simplified but structurally faithful port of
// the LULESH shock-hydrodynamics proxy application: the spherical Sedov
// blast problem solved with staggered-grid Lagrange hydrodynamics on a 3-D
// hexahedral mesh, decomposed into the same 28 device kernels per timestep
// that the paper reports in Table I.
//
// The physics is a reduced scheme (pressure-gradient nodal forces, viscous
// hourglass damping, scalar monotonic artificial viscosity, ideal-gas EOS
// solved with the three-pass energy/pressure iteration, Courant/hydro time
// constraints), chosen so that every kernel does the real class of work —
// 8-node gathers, corner-force scatters resolved as node-centric gathers,
// streaming EOS sweeps, min-reductions — that drives LULESH's measured
// characteristics (low LLC miss rate, balanced compute/bandwidth demand).
package lulesh

import (
	"fmt"
	"math"
	"slices"
)

// Config sizes one run: `-s` edge elements and `-i` iterations, matching
// the paper's command line `./LULESH -s 100 -i 100`.
type Config struct {
	// S is the mesh edge in elements (S³ elements, (S+1)³ nodes).
	S int
	// Iters is the number of timesteps.
	Iters int
	// FunctionalIters is how many leading iterations execute
	// functionally; later iterations replay measured kernel costs
	// (identical per-iteration work) to keep paper-size runs tractable.
	// Zero means all iterations are functional.
	FunctionalIters int
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if c.S < 2 {
		return fmt.Errorf("lulesh: S=%d must be ≥2", c.S)
	}
	if c.Iters < 1 {
		return fmt.Errorf("lulesh: Iters=%d must be ≥1", c.Iters)
	}
	if c.FunctionalIters < 0 {
		return fmt.Errorf("lulesh: FunctionalIters=%d must be ≥0", c.FunctionalIters)
	}
	return nil
}

func (c Config) functionalIters() int {
	if c.FunctionalIters == 0 || c.FunctionalIters > c.Iters {
		return c.Iters
	}
	return c.FunctionalIters
}

// Mesh is the immutable connectivity of an S³ hex mesh on the unit cube,
// with the reference geometry every Sedov state starts from. Nothing
// writes a Mesh after NewMesh returns, so a run memo shares one among all
// the problems of a config.
type Mesh struct {
	S       int
	NumElem int
	NumNode int
	// Nodelist holds the 8 node ids of each element, standard hex
	// ordering (local node n at (i+dx, j+dy, k+dz)).
	Nodelist []int32
	// Node→(element,corner) adjacency in CSR form: for node n, the
	// corners are NodeElemCorner[NodeElemStart[n]:NodeElemStart[n+1]],
	// each encoded as elem*8 + corner.
	NodeElemStart  []int32
	NodeElemCorner []int32
	// Element face neighbors along -x,+x,-y,+y,-z,+z (own index at the
	// boundary), used by the monotonic Q limiter.
	Lxim, Lxip, Letam, Letap, Lzetam, Lzetap []int32
	// Symmetry-plane node sets (x=0, y=0, z=0 faces of the domain).
	SymmX, SymmY, SymmZ []int32

	// Reference geometry: the nodes' initial positions, each element's
	// initial volume (its mass too, at density 1) and each node's mass,
	// an eighth of every element volume it is a corner of.
	X0, Y0, Z0 []float64
	Volo       []float64
	NodalMass  []float64
}

// corner offsets of the standard hex ordering.
var cornerDX = [8]int{0, 1, 1, 0, 0, 1, 1, 0}
var cornerDY = [8]int{0, 0, 1, 1, 0, 0, 1, 1}
var cornerDZ = [8]int{0, 0, 0, 0, 1, 1, 1, 1}

// NewMesh builds the connectivity for an s-edge cube.
func NewMesh(s int) *Mesh {
	if s < 2 {
		panic(fmt.Sprintf("lulesh: mesh edge %d must be ≥2", s))
	}
	np := s + 1
	m := &Mesh{
		S:       s,
		NumElem: s * s * s,
		NumNode: np * np * np,
	}
	nodeIdx := func(i, j, k int) int32 { return int32((k*np+j)*np + i) }
	elemIdx := func(i, j, k int) int32 { return int32((k*s+j)*s + i) }

	m.Nodelist = make([]int32, 8*m.NumElem)
	for k := 0; k < s; k++ {
		for j := 0; j < s; j++ {
			for i := 0; i < s; i++ {
				e := int(elemIdx(i, j, k))
				for c := 0; c < 8; c++ {
					m.Nodelist[e*8+c] = nodeIdx(i+cornerDX[c], j+cornerDY[c], k+cornerDZ[c])
				}
			}
		}
	}

	// Node→corner adjacency (CSR).
	counts := make([]int32, m.NumNode+1)
	for _, n := range m.Nodelist {
		counts[n+1]++
	}
	m.NodeElemStart = make([]int32, m.NumNode+1)
	for i := 0; i < m.NumNode; i++ {
		m.NodeElemStart[i+1] = m.NodeElemStart[i] + counts[i+1]
	}
	m.NodeElemCorner = make([]int32, 8*m.NumElem)
	fill := make([]int32, m.NumNode)
	for e := 0; e < m.NumElem; e++ {
		for c := 0; c < 8; c++ {
			n := m.Nodelist[e*8+c]
			m.NodeElemCorner[m.NodeElemStart[n]+fill[n]] = int32(e*8 + c)
			fill[n]++
		}
	}

	// Face neighbors.
	m.Lxim = make([]int32, m.NumElem)
	m.Lxip = make([]int32, m.NumElem)
	m.Letam = make([]int32, m.NumElem)
	m.Letap = make([]int32, m.NumElem)
	m.Lzetam = make([]int32, m.NumElem)
	m.Lzetap = make([]int32, m.NumElem)
	at := func(i, j, k, di, dj, dk int) int32 {
		ni, nj, nk := i+di, j+dj, k+dk
		if ni < 0 || ni >= s || nj < 0 || nj >= s || nk < 0 || nk >= s {
			return elemIdx(i, j, k) // boundary: self
		}
		return elemIdx(ni, nj, nk)
	}
	for k := 0; k < s; k++ {
		for j := 0; j < s; j++ {
			for i := 0; i < s; i++ {
				e := elemIdx(i, j, k)
				m.Lxim[e] = at(i, j, k, -1, 0, 0)
				m.Lxip[e] = at(i, j, k, +1, 0, 0)
				m.Letam[e] = at(i, j, k, 0, -1, 0)
				m.Letap[e] = at(i, j, k, 0, +1, 0)
				m.Lzetam[e] = at(i, j, k, 0, 0, -1)
				m.Lzetap[e] = at(i, j, k, 0, 0, +1)
			}
		}
	}

	// Symmetry planes.
	for k := 0; k < np; k++ {
		for j := 0; j < np; j++ {
			m.SymmX = append(m.SymmX, nodeIdx(0, j, k))
			m.SymmY = append(m.SymmY, nodeIdx(j, 0, k))
			m.SymmZ = append(m.SymmZ, nodeIdx(j, k, 0))
		}
	}

	// Unit cube coordinates.
	h := 1.0 / float64(s)
	m.X0, m.Y0, m.Z0 = make([]float64, m.NumNode), make([]float64, m.NumNode), make([]float64, m.NumNode)
	for k := 0; k < np; k++ {
		for j := 0; j < np; j++ {
			for i := 0; i < np; i++ {
				n := nodeIdx(i, j, k)
				m.X0[n] = float64(i) * h
				m.Y0[n] = float64(j) * h
				m.Z0[n] = float64(k) * h
			}
		}
	}

	// Volumes and masses.
	m.Volo = make([]float64, m.NumElem)
	m.NodalMass = make([]float64, m.NumNode)
	for e := 0; e < m.NumElem; e++ {
		vol := elemVolume(m.Nodelist, m.X0, m.Y0, m.Z0, e)
		m.Volo[e] = vol
		for c := 0; c < 8; c++ {
			m.NodalMass[m.Nodelist[e*8+c]] += vol / 8
		}
	}
	return m
}

// State is the mutable simulation state: nodal and element fields plus the
// per-kernel temporaries, each of which maps to one device allocation.
type State struct {
	Mesh *Mesh

	// Nodal fields.
	X, Y, Z       []float64 // positions
	Xd, Yd, Zd    []float64 // velocities
	Xdd, Ydd, Zdd []float64 // accelerations
	Fx, Fy, Fz    []float64 // force accumulators
	NodalMass     []float64

	// Element fields.
	E, P, Q       []float64 // energy, pressure, artificial viscosity
	V, Volo, Vnew []float64 // relative volume, reference volume, new volume
	Delv, Vdov    []float64 // volume change, volume derivative / volume
	Arealg        []float64 // characteristic length
	SS            []float64 // sound speed
	ElemMass      []float64

	// Kernel temporaries (device-resident scratch in the GPU ports).
	Sig                       []float64 // stress = -(p+q)
	FxElem, FyElem, FzElem    []float64 // corner forces, 8 per element
	VelAvgX, VelAvgY, VelAvgZ []float64
	DelvXi, DelvEta, DelvZeta []float64 // directional velocity gradients
	PhiXi, PhiEta, PhiZeta    []float64 // monotonic limiters
	EOld, POld, QOld, PHalf   []float64
	DtCour, DtHydro           []float64

	// Time integration.
	Time, Dt float64
}

// NewState initializes the Sedov problem on a unit-cube mesh: uniform
// density 1, cold everywhere, with the blast energy deposited in the
// origin element (the standard LULESH initialization). The positions,
// volumes and masses are copies of the mesh's reference geometry.
func NewState(m *Mesh) *State {
	s := &State{Mesh: m}
	nn, ne := m.NumNode, m.NumElem
	alloc := func(n int) []float64 { return make([]float64, n) }
	s.X, s.Y, s.Z = slices.Clone(m.X0), slices.Clone(m.Y0), slices.Clone(m.Z0)
	s.Xd, s.Yd, s.Zd = alloc(nn), alloc(nn), alloc(nn)
	s.Xdd, s.Ydd, s.Zdd = alloc(nn), alloc(nn), alloc(nn)
	s.Fx, s.Fy, s.Fz = alloc(nn), alloc(nn), alloc(nn)
	s.NodalMass = slices.Clone(m.NodalMass)
	s.E, s.P, s.Q = alloc(ne), alloc(ne), alloc(ne)
	s.V, s.Volo, s.Vnew = alloc(ne), slices.Clone(m.Volo), alloc(ne)
	s.Delv, s.Vdov = alloc(ne), alloc(ne)
	s.Arealg, s.SS, s.ElemMass = alloc(ne), alloc(ne), slices.Clone(m.Volo) // density 1
	s.Sig = alloc(ne)
	s.FxElem, s.FyElem, s.FzElem = alloc(8*ne), alloc(8*ne), alloc(8*ne)
	s.VelAvgX, s.VelAvgY, s.VelAvgZ = alloc(ne), alloc(ne), alloc(ne)
	s.DelvXi, s.DelvEta, s.DelvZeta = alloc(ne), alloc(ne), alloc(ne)
	s.PhiXi, s.PhiEta, s.PhiZeta = alloc(ne), alloc(ne), alloc(ne)
	s.EOld, s.POld, s.QOld, s.PHalf = alloc(ne), alloc(ne), alloc(ne), alloc(ne)
	s.DtCour, s.DtHydro = alloc(ne), alloc(ne)
	for e := range ne {
		s.V[e] = 1
		s.Vnew[e] = 1
	}

	// Sedov energy deposit in the origin element (LULESH's corner blast,
	// rescaled to the unit cube).
	s.E[0] = 3.948746e-2

	// Initial timestep from the deposit's sound speed, with a generous
	// safety factor; the Courant constraint takes over after step one.
	h := 1.0 / float64(m.S)
	p0 := (gammaEOS - 1) * s.E[0]
	ss0 := math.Sqrt(gammaEOS * p0)
	s.Dt = 0.02 * h / ss0
	return s
}

// elemVolume computes the (signed, positive for valid meshes) volume of
// element e of connectivity nodelist at node positions x, y, z, via the
// divergence theorem over its boundary (hexVolume).
func elemVolume(nodelist []int32, x, y, z []float64, e int) float64 {
	nl := nodelist[e*8 : e*8+8]
	var px, py, pz [8]float64
	for c := 0; c < 8; c++ {
		n := nl[c]
		px[c], py[c], pz[c] = x[n], y[n], z[n]
	}
	return hexVolume(&px, &py, &pz)
}

// faces of the hex with outward orientation (counter-clockwise from
// outside), standard ordering.
var hexFaces = [6][4]int{
	{0, 3, 2, 1}, // -z
	{4, 5, 6, 7}, // +z
	{0, 1, 5, 4}, // -y
	{2, 3, 7, 6}, // +y
	{0, 4, 7, 3}, // -x
	{1, 2, 6, 5}, // +x
}

// hexVolume returns the volume of a hexahedron given its 8 corner
// coordinates, by the divergence theorem over the boundary: each quad
// face is integrated as the average of its two diagonal triangulations,
// which equals the bilinear-patch integral and — unlike a fixed diagonal
// choice — is exactly symmetric under mirror relabelings (the Sedov
// problem's axis symmetry depends on this). It is written out straight:
// face f0 f1 f2 f3 of hexFaces, in order, contributes the triangles
// f0f1f2 and f0f2f3 (diagonal 0–2), then f1f2f3 and f1f3f0 (diagonal
// 1–3).
func hexVolume(px, py, pz *[8]float64) float64 {
	vol := 0.0
	vol += triple(px, py, pz, 0, 3, 2) // -z: 0 3 2 1
	vol += triple(px, py, pz, 0, 2, 1)
	vol += triple(px, py, pz, 3, 2, 1)
	vol += triple(px, py, pz, 3, 1, 0)
	vol += triple(px, py, pz, 4, 5, 6) // +z: 4 5 6 7
	vol += triple(px, py, pz, 4, 6, 7)
	vol += triple(px, py, pz, 5, 6, 7)
	vol += triple(px, py, pz, 5, 7, 4)
	vol += triple(px, py, pz, 0, 1, 5) // -y: 0 1 5 4
	vol += triple(px, py, pz, 0, 5, 4)
	vol += triple(px, py, pz, 1, 5, 4)
	vol += triple(px, py, pz, 1, 4, 0)
	vol += triple(px, py, pz, 2, 3, 7) // +y: 2 3 7 6
	vol += triple(px, py, pz, 2, 7, 6)
	vol += triple(px, py, pz, 3, 7, 6)
	vol += triple(px, py, pz, 3, 6, 2)
	vol += triple(px, py, pz, 0, 4, 7) // -x: 0 4 7 3
	vol += triple(px, py, pz, 0, 7, 3)
	vol += triple(px, py, pz, 4, 7, 3)
	vol += triple(px, py, pz, 4, 3, 0)
	vol += triple(px, py, pz, 1, 2, 6) // +x: 1 2 6 5
	vol += triple(px, py, pz, 1, 6, 5)
	vol += triple(px, py, pz, 2, 6, 5)
	vol += triple(px, py, pz, 2, 5, 1)
	return vol / 12
}

// triple returns the triple product a·(b×c) of corners a, b and c: six
// times the signed volume of the tetrahedron they span with the origin.
func triple(px, py, pz *[8]float64, a, b, c int) float64 {
	return px[a]*(py[b]*pz[c]-pz[b]*py[c]) -
		py[a]*(px[b]*pz[c]-pz[b]*px[c]) +
		pz[a]*(px[b]*py[c]-py[b]*px[c])
}

// TotalEnergy returns internal + kinetic energy, the conservation digest
// used for verification and as the cross-model checksum.
func (s *State) TotalEnergy() float64 {
	internal := 0.0
	for e := range s.E {
		internal += s.E[e]
	}
	kinetic := 0.0
	for n := range s.Xd {
		v2 := s.Xd[n]*s.Xd[n] + s.Yd[n]*s.Yd[n] + s.Zd[n]*s.Zd[n]
		kinetic += 0.5 * s.NodalMass[n] * v2
	}
	return internal + kinetic
}
