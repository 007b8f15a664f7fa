package lulesh

import (
	"math"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// Material and scheme constants (LULESH defaults, reduced scheme).
const (
	gammaEOS  = 1.4   // ideal-gas gamma
	eMin      = -1e15 // energy floor
	pMin      = 0.0   // pressure floor
	ssMin     = 1e-9  // sound-speed floor squared
	hgCoef    = 0.03  // hourglass damping fraction per step
	qqCoef    = 2.0   // quadratic artificial-viscosity coefficient
	qlCoef    = 0.25  // linear artificial-viscosity coefficient
	cflFactor = 0.45  // Courant safety factor
	dvovMax   = 0.1   // max relative volume change per step
	dtGrowth  = 1.1   // max timestep growth per step
	vCut      = 1e-10 // relative-volume snap-to-one cutoff
	reduceBlk = 64    // elements per reduction work item
)

// KernelID indexes the 28 kernels of one timestep.
type KernelID int

// The 28 kernels, in launch order (Table I: "Number of Kernels: 28").
const (
	KInitStress KernelID = iota
	KIntegrateStress
	KHourglassA
	KHourglassB
	KAddNodeForces
	KAcceleration
	KAccelerationBC
	KVelocity
	KPosition
	KKinematicsVolume
	KCharLength
	KStrainRate
	KLagrangePart2
	KQGradients
	KQRegion
	KQForElems
	KEOSCopy
	KEnergy1
	KPressure1
	KEnergy2
	KPressure2
	KEnergy3
	KPressure3
	KSoundSpeed
	KUpdateVolumes
	KCourant
	KHydro
	KReduceConstraints
	NumKernels // == 28
)

// KernelMeta describes one kernel for drivers and characterization.
type KernelMeta struct {
	Name  string
	Class modelapi.KernelClass
	// Nodal is true for node-domain kernels, false for element-domain.
	Nodal bool
}

// Kernels is the metadata table, indexed by KernelID.
var Kernels = [NumKernels]KernelMeta{
	KInitStress:        {"InitStressTermsForElems", modelapi.Streaming, false},
	KIntegrateStress:   {"IntegrateStressForElems", modelapi.Regular, false},
	KHourglassA:        {"CalcHourglassControlForElems", modelapi.Regular, false},
	KHourglassB:        {"CalcFBHourglassForceForElems", modelapi.Regular, false},
	KAddNodeForces:     {"AddNodeForcesFromElems", modelapi.Regular, true},
	KAcceleration:      {"CalcAccelerationForNodes", modelapi.Streaming, true},
	KAccelerationBC:    {"ApplyAccelerationBoundaryConditions", modelapi.Streaming, true},
	KVelocity:          {"CalcVelocityForNodes", modelapi.Streaming, true},
	KPosition:          {"CalcPositionForNodes", modelapi.Streaming, true},
	KKinematicsVolume:  {"CalcKinematicsForElems", modelapi.Regular, false},
	KCharLength:        {"CalcElemCharacteristicLength", modelapi.Streaming, false},
	KStrainRate:        {"CalcElemVelocityGradient", modelapi.Streaming, false},
	KLagrangePart2:     {"CalcLagrangeElementsPart2", modelapi.Streaming, false},
	KQGradients:        {"CalcMonotonicQGradientsForElems", modelapi.Regular, false},
	KQRegion:           {"CalcMonotonicQRegionForElems", modelapi.Regular, false},
	KQForElems:         {"CalcQForElems", modelapi.Streaming, false},
	KEOSCopy:           {"EvalEOSForElemsCopy", modelapi.Streaming, false},
	KEnergy1:           {"CalcEnergyForElemsPass1", modelapi.Streaming, false},
	KPressure1:         {"CalcPressureForElemsPass1", modelapi.Streaming, false},
	KEnergy2:           {"CalcEnergyForElemsPass2", modelapi.Streaming, false},
	KPressure2:         {"CalcPressureForElemsPass2", modelapi.Streaming, false},
	KEnergy3:           {"CalcEnergyForElemsPass3", modelapi.Streaming, false},
	KPressure3:         {"CalcPressureForElemsPass3", modelapi.Streaming, false},
	KSoundSpeed:        {"CalcSoundSpeedForElems", modelapi.Streaming, false},
	KUpdateVolumes:     {"UpdateVolumesForElems", modelapi.Streaming, false},
	KCourant:           {"CalcCourantConstraintForElems", modelapi.Streaming, false},
	KHydro:             {"CalcHydroConstraintForElems", modelapi.Streaming, false},
	KReduceConstraints: {"ReduceTimeConstraints", modelapi.Streaming, false},
}

// stepper binds state and the reduction partials.
type stepper struct {
	s *State
	// nPartials is the reduction-output length.
	nPartials int
	partials  []float64
}

func newStepper(s *State) *stepper {
	np := (s.Mesh.NumElem + reduceBlk - 1) / reduceBlk
	return &stepper{s: s, nPartials: np, partials: make([]float64, np)}
}

// tally builds a kernel's per-item counters in each precision's view,
// with the flops routed and the words scaled by that precision.
func tally(flops, loadWords, storeWords, instrs float64) exec.Views {
	return appcore.PerView(1, func(prec timing.Precision) exec.Counters {
		elt := appcore.EltBytes(prec)
		sp, dp := appcore.Flops(prec, flops)
		return exec.Counters{
			SPFlops: sp, DPFlops: dp,
			LoadBytes:  loadWords * elt,
			StoreBytes: storeWords * elt,
			Instrs:     instrs,
		}
	})
}

// step advances one timestep through the 28 kernels.
func (st *stepper) step(d *recDriver) {
	s := st.s
	m := s.Mesh
	ne, nn := m.NumElem, m.NumNode
	dt := s.Dt

	// ---------------- Lagrange nodal phase ----------------

	// 1. Stress from pressure and viscosity.
	d.launch(KInitStress, ne, exec.Uniform(tally(2, 2, 1, 6), func(e int) {
		s.Sig[e] = -s.P[e] - s.Q[e]
	}))

	// 2. Integrate stress: corner forces from face-area vectors.
	d.launch(KIntegrateStress, ne, exec.Uniform(tally(160, 26, 24, 260), func(e int) {
		nl := m.Nodelist[e*8 : e*8+8]
		var px, py, pz [8]float64
		for c := 0; c < 8; c++ {
			n := nl[c]
			px[c], py[c], pz[c] = s.X[n], s.Y[n], s.Z[n]
		}
		var fx, fy, fz [8]float64
		sig := s.Sig[e]
		for _, f := range hexFaces {
			// area vector = 0.5 * (d1 × d2), outward.
			d1x := px[f[2]] - px[f[0]]
			d1y := py[f[2]] - py[f[0]]
			d1z := pz[f[2]] - pz[f[0]]
			d2x := px[f[3]] - px[f[1]]
			d2y := py[f[3]] - py[f[1]]
			d2z := pz[f[3]] - pz[f[1]]
			ax := 0.5 * (d1y*d2z - d1z*d2y)
			ay := 0.5 * (d1z*d2x - d1x*d2z)
			az := 0.5 * (d1x*d2y - d1y*d2x)
			// corner force: -sig = p+q pushes outward; quarter per node.
			cfx, cfy, cfz := -sig*ax/4, -sig*ay/4, -sig*az/4
			for _, c := range f {
				fx[c] += cfx
				fy[c] += cfy
				fz[c] += cfz
			}
		}
		for c := 0; c < 8; c++ {
			s.FxElem[e*8+c] = fx[c]
			s.FyElem[e*8+c] = fy[c]
			s.FzElem[e*8+c] = fz[c]
		}
	}))

	// 3. Hourglass control A: element-average velocity.
	d.launch(KHourglassA, ne, exec.Uniform(tally(27, 25, 3, 60), func(e int) {
		nl := m.Nodelist[e*8 : e*8+8]
		var ax, ay, az float64
		for c := 0; c < 8; c++ {
			n := nl[c]
			ax += s.Xd[n]
			ay += s.Yd[n]
			az += s.Zd[n]
		}
		s.VelAvgX[e] = ax / 8
		s.VelAvgY[e] = ay / 8
		s.VelAvgZ[e] = az / 8
	}))

	// 4. Hourglass control B: damping corner forces toward the mean.
	d.launch(KHourglassB, ne, exec.Uniform(tally(75, 55, 24, 130), func(e int) {
		nl := m.Nodelist[e*8 : e*8+8]
		mc := hgCoef * s.ElemMass[e] / 8 / dt
		for c := 0; c < 8; c++ {
			n := nl[c]
			s.FxElem[e*8+c] -= mc * (s.Xd[n] - s.VelAvgX[e])
			s.FyElem[e*8+c] -= mc * (s.Yd[n] - s.VelAvgY[e])
			s.FzElem[e*8+c] -= mc * (s.Zd[n] - s.VelAvgZ[e])
		}
	}))

	// 5. Gather corner forces to nodes.
	d.launch(KAddNodeForces, nn, exec.Uniform(tally(24, 26, 3, 60), func(n int) {
		lo, hi := m.NodeElemStart[n], m.NodeElemStart[n+1]
		var fx, fy, fz float64
		for i := lo; i < hi; i++ {
			c := m.NodeElemCorner[i]
			fx += s.FxElem[c]
			fy += s.FyElem[c]
			fz += s.FzElem[c]
		}
		s.Fx[n], s.Fy[n], s.Fz[n] = fx, fy, fz
	}))

	// 6. Acceleration.
	d.launch(KAcceleration, nn, exec.Uniform(tally(4, 4, 3, 10), func(n int) {
		im := 1 / s.NodalMass[n]
		s.Xdd[n] = s.Fx[n] * im
		s.Ydd[n] = s.Fy[n] * im
		s.Zdd[n] = s.Fz[n] * im
	}))

	// 7. Symmetry-plane boundary conditions.
	d.launch(KAccelerationBC, len(m.SymmX)+len(m.SymmY)+len(m.SymmZ), exec.Uniform(tally(0, 1, 1, 5), func(i int) {
		switch {
		case i < len(m.SymmX):
			s.Xdd[m.SymmX[i]] = 0
		case i < len(m.SymmX)+len(m.SymmY):
			s.Ydd[m.SymmY[i-len(m.SymmX)]] = 0
		default:
			s.Zdd[m.SymmZ[i-len(m.SymmX)-len(m.SymmY)]] = 0
		}
	}))

	// 8. Velocity update.
	d.launch(KVelocity, nn, exec.Uniform(tally(6, 6, 3, 12), func(n int) {
		s.Xd[n] += s.Xdd[n] * dt
		s.Yd[n] += s.Ydd[n] * dt
		s.Zd[n] += s.Zdd[n] * dt
	}))

	// 9. Position update.
	d.launch(KPosition, nn, exec.Uniform(tally(6, 6, 3, 12), func(n int) {
		s.X[n] += s.Xd[n] * dt
		s.Y[n] += s.Yd[n] * dt
		s.Z[n] += s.Zd[n] * dt
	}))

	// ---------------- Lagrange element phase ----------------

	// 10. Kinematics: new volumes.
	d.launch(KKinematicsVolume, ne, exec.Uniform(tally(110, 26, 2, 180), func(e int) {
		vol := s.elemVolume(e)
		vn := vol / s.Volo[e]
		s.Delv[e] = vn - s.V[e]
		s.Vnew[e] = vn
	}))

	// 11. Characteristic length.
	d.launch(KCharLength, ne, exec.Uniform(tally(8, 2, 1, 14), func(e int) {
		s.Arealg[e] = math.Cbrt(s.Vnew[e] * s.Volo[e])
	}))

	// 12. Volume derivative (strain-rate trace).
	d.launch(KStrainRate, ne, exec.Uniform(tally(2, 2, 1, 8), func(e int) {
		s.Vdov[e] = s.Delv[e] / (s.Vnew[e] * dt)
	}))

	// 13. Part 2: snap near-unity volumes.
	d.launch(KLagrangePart2, ne, exec.Uniform(tally(1, 1, 1, 6), func(e int) {
		if math.Abs(s.Vnew[e]-1) < vCut {
			s.Vnew[e] = 1
		}
	}))

	// 14. Monotonic Q gradients: face-to-face velocity differences.
	d.launch(KQGradients, ne, exec.Uniform(tally(21, 26, 3, 60), func(e int) {
		nl := m.Nodelist[e*8 : e*8+8]
		faceAvg := func(f [4]int, v []float64) float64 {
			return (v[nl[f[0]]] + v[nl[f[1]]] + v[nl[f[2]]] + v[nl[f[3]]]) / 4
		}
		s.DelvXi[e] = faceAvg(hexFaces[5], s.Xd) - faceAvg(hexFaces[4], s.Xd)
		s.DelvEta[e] = faceAvg(hexFaces[3], s.Yd) - faceAvg(hexFaces[2], s.Yd)
		s.DelvZeta[e] = faceAvg(hexFaces[1], s.Zd) - faceAvg(hexFaces[0], s.Zd)
	}))

	// 15. Monotonic Q limiter from face neighbors. (This is the kernel
	// that fell back to the CPU under the CLAMP compiler bug on the
	// discrete GPU.)
	limiter := func(own, below, above float64) float64 {
		const eps = 1e-36
		if math.Abs(own) < eps {
			return 0
		}
		rm := below / own
		rp := above / own
		phi := math.Min(rm, rp)
		if phi < 0 {
			phi = 0
		}
		if phi > 1 {
			phi = 1
		}
		return phi
	}
	d.launch(KQRegion, ne, exec.Uniform(tally(24, 15, 3, 60), func(e int) {
		s.PhiXi[e] = limiter(s.DelvXi[e], s.DelvXi[m.Lxim[e]], s.DelvXi[m.Lxip[e]])
		s.PhiEta[e] = limiter(s.DelvEta[e], s.DelvEta[m.Letam[e]], s.DelvEta[m.Letap[e]])
		s.PhiZeta[e] = limiter(s.DelvZeta[e], s.DelvZeta[m.Lzetam[e]], s.DelvZeta[m.Lzetap[e]])
	}))

	// 16. Artificial viscosity.
	d.launch(KQForElems, ne, exec.Uniform(tally(12, 8, 1, 26), func(e int) {
		if s.Vdov[e] < 0 {
			rho := 1 / s.Vnew[e]
			l := s.Arealg[e]
			phi := (s.PhiXi[e] + s.PhiEta[e] + s.PhiZeta[e]) / 3
			dv := -s.Vdov[e] * l
			s.Q[e] = rho * (qqCoef*dv*dv + qlCoef*dv*s.SS[e]) * (1 - phi)
		} else {
			s.Q[e] = 0
		}
	}))

	// 17–24. EOS pipeline.
	d.launch(KEOSCopy, ne, exec.Uniform(tally(0, 3, 3, 8), func(e int) {
		s.EOld[e], s.POld[e], s.QOld[e] = s.E[e], s.P[e], s.Q[e]
	}))
	d.launch(KEnergy1, ne, exec.Uniform(tally(5, 4, 1, 12), func(e int) {
		en := s.EOld[e] - 0.5*s.Delv[e]*(s.POld[e]+s.QOld[e])
		s.E[e] = math.Max(en, eMin)
	}))
	d.launch(KPressure1, ne, exec.Uniform(tally(5, 3, 1, 12), func(e int) {
		vhalf := 0.5 * (s.V[e] + s.Vnew[e])
		s.PHalf[e] = math.Max((gammaEOS-1)*s.E[e]/vhalf, pMin)
	}))
	d.launch(KEnergy2, ne, exec.Uniform(tally(6, 4, 1, 12), func(e int) {
		en := s.E[e] - 0.5*s.Delv[e]*(s.PHalf[e]-s.POld[e])*0.5
		s.E[e] = math.Max(en, eMin)
	}))
	d.launch(KPressure2, ne, exec.Uniform(tally(4, 2, 1, 10), func(e int) {
		s.P[e] = math.Max((gammaEOS-1)*s.E[e]/s.Vnew[e], pMin)
	}))
	d.launch(KEnergy3, ne, exec.Uniform(tally(2, 1, 1, 8), func(e int) {
		if math.Abs(s.E[e]) < 1e-30 {
			s.E[e] = 0
		}
		s.E[e] = math.Max(s.E[e], eMin)
	}))
	d.launch(KPressure3, ne, exec.Uniform(tally(4, 2, 1, 10), func(e int) {
		s.P[e] = math.Max((gammaEOS-1)*s.E[e]/s.Vnew[e], pMin)
	}))
	d.launch(KSoundSpeed, ne, exec.Uniform(tally(7, 2, 1, 14), func(e int) {
		s.SS[e] = math.Sqrt(math.Max(gammaEOS*s.P[e]*s.Vnew[e], ssMin))
	}))

	// 25. Commit volumes.
	d.launch(KUpdateVolumes, ne, exec.Uniform(tally(1, 1, 1, 6), func(e int) {
		v := s.Vnew[e]
		if math.Abs(v-1) < vCut {
			v = 1
		}
		s.V[e] = v
	}))

	// ---------------- Time constraints ----------------

	// 26–27. Per-element constraints.
	d.launch(KCourant, ne, exec.Uniform(tally(2, 2, 1, 8), func(e int) {
		s.DtCour[e] = s.Arealg[e] / math.Max(s.SS[e], 1e-20)
	}))
	d.launch(KHydro, ne, exec.Uniform(tally(3, 1, 1, 8), func(e int) {
		s.DtHydro[e] = dvovMax / (math.Abs(s.Vdov[e]) + 1e-20)
	}))

	// 28. Block-min reduction into partials, then host min.
	d.launch(KReduceConstraints, st.nPartials, exec.Uniform(tally(3*reduceBlk, 2*reduceBlk, 1, 4*reduceBlk), func(i int) {
		lo := i * reduceBlk
		hi := lo + reduceBlk
		if hi > ne {
			hi = ne
		}
		mn := math.Inf(1)
		for e := lo; e < hi; e++ {
			c := math.Min(cflFactor*s.DtCour[e], s.DtHydro[e])
			if c < mn {
				mn = c
			}
		}
		st.partials[i] = mn
	}))

	// Per-iteration readback of the partial mins (small).
	d.readback()

	// Host-side final min and dt update.
	newDt := math.Inf(1)
	for _, v := range st.partials {
		if v < newDt {
			newDt = v
		}
	}
	if !math.IsInf(newDt, 1) && newDt > 0 {
		if newDt > dtGrowth*s.Dt {
			newDt = dtGrowth * s.Dt
		}
		s.Dt = newDt
	}
	s.Time += s.Dt
}
