package sched

import (
	"math/rand"
	"strings"
	"testing"

	"hetbench/internal/fault"
	"hetbench/internal/sim"
	"hetbench/internal/trace"
)

// randomDag draws a random acyclic launch: edges only point from lower to
// higher indices, so the graph is a DAG by construction; a sprinkle of
// kernels carries a placement pin.
func randomDag(rng *rand.Rand, n int) DagLaunch {
	kernels := make([]DagKernel, n)
	for k := 0; k < n; k++ {
		items := 1 + rng.Intn(1<<14)
		kernels[k] = DagKernel{
			Name:  "k",
			Accel: randomCost(rng, items),
			Host:  randomCost(rng, items),
		}
		for d := 0; d < k; d++ {
			if rng.Float64() < 0.3 {
				kernels[k].Deps = append(kernels[k].Deps, d)
			}
		}
		switch rng.Intn(8) {
		case 0:
			kernels[k].Place = PlaceHost
		case 1:
			kernels[k].Place = PlaceAccel
		}
	}
	return DagLaunch{Name: "random", Kernels: kernels}
}

// TestDagProperties drives every policy over random DAG shapes and checks
// the invariants the dag experiment rests on:
//
//   - exactly once: every kernel books on exactly one device, and the
//     booking stream agrees with Target/FinishNs and the Stats tallies;
//   - dependency order: no kernel finishes before a dependency (in-order
//     queues start each kernel no earlier than its ready time, so finish
//     times suffice), and every booking follows its deps in stream order;
//   - constraints win: pinned kernels land on their device;
//   - the makespan is the longer queue, and it never beats the critical
//     path's best-device lower bound;
//   - the serial schedule books in Kahn order and runs one kernel at a
//     time, so its makespan is the sum of its kernels.
func TestDagProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	machines := []func() *sim.Machine{sim.NewAPU, sim.NewDGPU}
	planners := []*DagPlanner{SerialDag(), NewDag(Static), NewDag(Dynamic), NewDag(HGuided)}

	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		l := randomDag(rng, n)
		mk := machines[rng.Intn(len(machines))]
		for _, pol := range planners {
			var order []int
			booked := make(map[int]int, n)
			l.OnKernel = func(q *sim.QueuePair, k int, tg sim.Target, rebooked bool) {
				order = append(order, k)
				booked[k]++
				if rebooked {
					t.Errorf("policy %v: kernel %d rebooked with no injector attached", pol, k)
				}
			}
			m := mk()
			res := pol.Run(m, l)

			if len(order) != n {
				t.Fatalf("policy %v: booked %d of %d kernels", pol, len(order), n)
			}
			for k := 0; k < n; k++ {
				if booked[k] != 1 {
					t.Errorf("policy %v: kernel %d booked %d times", pol, k, booked[k])
				}
			}
			pos := make([]int, n)
			for i, k := range order {
				pos[k] = i
			}
			for k, kern := range l.Kernels {
				for _, d := range kern.Deps {
					if pos[d] >= pos[k] {
						t.Errorf("policy %v: kernel %d booked before its dep %d", pol, k, d)
					}
					if res.FinishNs[d] > res.FinishNs[k] {
						t.Errorf("policy %v: kernel %d finishes at %g before dep %d at %g",
							pol, k, res.FinishNs[k], d, res.FinishNs[d])
					}
				}
				switch kern.Place {
				case PlaceHost:
					if res.Target[k] != sim.OnHost {
						t.Errorf("policy %v: host-pinned kernel %d ran on %v", pol, k, res.Target[k])
					}
				case PlaceAccel:
					if res.Target[k] != sim.OnAccelerator {
						t.Errorf("policy %v: accel-pinned kernel %d ran on %v", pol, k, res.Target[k])
					}
				}
			}
			if res.Stats.HostKernels+res.Stats.AccelKernels != n {
				t.Errorf("policy %v: stats count %d+%d kernels, want %d",
					pol, res.Stats.HostKernels, res.Stats.AccelKernels, n)
			}
			if got := res.Stats.HostNs; got > res.MakespanNs+1e-9 {
				t.Errorf("policy %v: host queue %g outruns makespan %g", pol, got, res.MakespanNs)
			}
			if got := res.Stats.AccelNs; got > res.MakespanNs+1e-9 {
				t.Errorf("policy %v: accel queue %g outruns makespan %g", pol, got, res.MakespanNs)
			}
			// Lower bound: the critical path, each kernel at its faster
			// device's time, can never be beaten.
			hostM, accelM := m.HostModel(), m.AcceleratorModel()
			best := make([]float64, n)
			var bound float64
			for _, k := range order {
				h := hostM.Kernel(l.Kernels[k].Host).TimeNs
				a := accelM.Kernel(l.Kernels[k].Accel).TimeNs
				min := h
				if a < min {
					min = a
				}
				longest := 0.0
				for _, d := range l.Kernels[k].Deps {
					if best[d] > longest {
						longest = best[d]
					}
				}
				best[k] = longest + min
				if best[k] > bound {
					bound = best[k]
				}
			}
			if res.MakespanNs < bound-1e-6 {
				t.Errorf("policy %v: makespan %g beats the critical-path bound %g", pol, res.MakespanNs, bound)
			}
			if pol.serial {
				sum := 0.0
				for i, k := range order {
					if i > 0 && k < order[i-1] && !dependsOn(l, k, order[i-1]) {
						t.Errorf("serial booked kernel %d after %d, off the lowest-index order", k, order[i-1])
					}
					if res.Target[k] == sim.OnHost {
						sum += hostM.Kernel(l.Kernels[k].Host).TimeNs
					} else {
						sum += accelM.Kernel(l.Kernels[k].Accel).TimeNs
					}
				}
				if res.MakespanNs != sum {
					t.Errorf("serial makespan %g, want the %g ns sum of its kernels", res.MakespanNs, sum)
				}
				if res.Stats.HostKernels != placedOn(l, PlaceHost) {
					t.Errorf("serial ran %d kernels on the host, want only the %d host-pinned", res.Stats.HostKernels, placedOn(l, PlaceHost))
				}
			}
		}
	}
}

// dependsOn reports whether kernel k transitively depends on kernel d.
func dependsOn(l DagLaunch, k, d int) bool {
	for _, e := range l.Kernels[k].Deps {
		if e == d || dependsOn(l, e, d) {
			return true
		}
	}
	return false
}

// placedOn counts the kernels pinned to p.
func placedOn(l DagLaunch, p Placement) int {
	n := 0
	for _, k := range l.Kernels {
		if k.Place == p {
			n++
		}
	}
	return n
}

// The serial schedule plans nothing, so it publishes none of the
// sched.dag.* counters the policies report.
func TestSerialDagPublishesNoPlanCounters(t *testing.T) {
	m := sim.NewDGPU()
	tr := trace.New()
	m.SetTracer(tr)
	SerialDag().Run(m, randomDag(rand.New(rand.NewSource(3)), 6))
	for name, v := range tr.Metrics().Snapshot() {
		if strings.HasPrefix(name, "sched.") {
			t.Errorf("serial schedule published %s = %g", name, v)
		}
	}
	if tr.Metrics().Get(trace.CtrKernelLaunches) != 6 {
		t.Error("serial schedule booked no kernel spans")
	}
}

// TestDagDeterministic replays one launch per schedule on fresh machines
// and demands bit-identical schedules.
func TestDagDeterministic(t *testing.T) {
	for _, pol := range []*DagPlanner{SerialDag(), NewDag(Static), NewDag(Dynamic), NewDag(HGuided)} {
		rng := rand.New(rand.NewSource(23))
		l := randomDag(rng, 10)
		var first DagResult
		for i := 0; i < 5; i++ {
			res := pol.Run(sim.NewDGPU(), l)
			if i == 0 {
				first = res
				continue
			}
			if res.MakespanNs != first.MakespanNs {
				t.Fatalf("policy %v run %d: makespan %g != %g", pol, i, res.MakespanNs, first.MakespanNs)
			}
			for k := range res.Target {
				if res.Target[k] != first.Target[k] || res.FinishNs[k] != first.FinishNs[k] {
					t.Fatalf("policy %v run %d: kernel %d schedule differs", pol, i, k)
				}
			}
		}
	}
}

// TestDagRebooking opens a device-loss window at t=0 and checks the
// fault-aware path: unconstrained kernels issued inside the window rebook
// on the host, accel-pinned kernels wait the window out instead, and
// kernels issued after the window return to the accelerator.
func TestDagRebooking(t *testing.T) {
	const windowNs = 1e6
	inj := fault.New(fault.Config{Seed: 3, DeviceLossRate: 0.5, DeviceLossNs: windowNs})
	for inj.LostUntilNs() == 0 {
		inj.Launch(0)
	}
	m := sim.NewDGPU()
	m.SetFaultInjector(inj, fault.DefaultPolicy())

	rng := rand.New(rand.NewSource(5))
	big := randomCost(rng, 1<<16)
	l := DagLaunch{
		Name: "loss",
		Kernels: []DagKernel{
			{Name: "a", Accel: big, Host: big},
			{Name: "pinned", Accel: big, Host: big, Place: PlaceAccel},
			{Name: "late", Accel: big, Host: big, Deps: []int{1}},
		},
	}
	var events []struct {
		k        int
		t        sim.Target
		rebooked bool
	}
	l.OnKernel = func(q *sim.QueuePair, k int, tg sim.Target, rebooked bool) {
		events = append(events, struct {
			k        int
			t        sim.Target
			rebooked bool
		}{k, tg, rebooked})
	}
	res := NewDag(Dynamic).Run(m, l)

	if res.Stats.Rebooked == 0 {
		t.Fatal("no kernel rebooked despite the open loss window")
	}
	if res.Target[0] != sim.OnHost {
		t.Errorf("unconstrained kernel issued in the window ran on %v, want host", res.Target[0])
	}
	if res.Target[1] != sim.OnAccelerator {
		t.Errorf("accel-pinned kernel ran on %v, want accelerator", res.Target[1])
	}
	// The pinned kernel waited the window out rather than rebooking.
	if res.FinishNs[1] < windowNs {
		t.Errorf("pinned kernel finished at %g ns, inside the %g ns loss window", res.FinishNs[1], windowNs)
	}
	for _, e := range events {
		if e.rebooked && e.t != sim.OnHost {
			t.Errorf("kernel %d reported rebooked but ran on %v", e.k, e.t)
		}
	}
	// A dependent of the pinned kernel becomes ready after the window and
	// is free to use the accelerator again.
	if res.FinishNs[2] <= res.FinishNs[1] {
		t.Errorf("dependent kernel finished at %g, not after its dep at %g", res.FinishNs[2], res.FinishNs[1])
	}
}
