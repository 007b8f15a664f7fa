package workload

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/trace"
)

// fuzzMaxKernels bounds the specs the differential half of
// FuzzWorkloadSpec executes, so one input stays a few milliseconds: the
// planners are quadratic in kernels, and every input runs 48 schedules.
const fuzzMaxKernels = 24

// FuzzWorkloadSpec throws arbitrary bytes at the strict parser and checks
// the contract: it never panics, and anything it accepts is a spec whose
// compilation succeeds with a complete, dependency-respecting topological
// order. Every accepted spec then runs differentially (see
// checkSchedules). The corpus seeds the interesting rejection classes — a
// valid spec, an After cycle, a self-edge, a duplicate kernel name and
// truncated JSON — so mutation starts from both sides of the boundary,
// plus a spec with pinned kernels for the schedules to work around.
func FuzzWorkloadSpec(f *testing.F) {
	f.Add([]byte(validSpec))
	f.Add([]byte(`{"name":"cycle","kernels":[
		{"name":"a","class":"streaming","items":1,"after":["b"]},
		{"name":"b","class":"streaming","items":1,"after":["a"]}]}`))
	f.Add([]byte(`{"name":"self","kernels":[
		{"name":"a","class":"streaming","items":1,"after":["a"]}]}`))
	f.Add([]byte(`{"name":"dup","kernels":[
		{"name":"a","class":"streaming","items":1},
		{"name":"a","class":"streaming","items":1}]}`))
	f.Add([]byte(validSpec[:len(validSpec)/3]))
	f.Add([]byte(`{"name":"pinned","iterations":3,"buffers":[{"name":"x","bytes":4096}],"kernels":[
		{"name":"gpu","class":"regular","items":65536,"sp_flops":40,"load_bytes":8,"writes":["x"]},
		{"name":"cpu","class":"irregular","items":64,"load_bytes":8,"device":"host"},
		{"name":"use","class":"streaming","items":4096,"load_bytes":4,"reads":["x"],"device":"accel"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Parse already compiled once; compiling again must agree and
		// yield a valid schedule.
		p, err := s.Compile()
		if err != nil {
			t.Fatalf("Parse accepted a spec Compile rejects: %v", err)
		}
		n := len(s.Kernels)
		if len(p.Order) != n {
			t.Fatalf("topo order covers %d of %d kernels", len(p.Order), n)
		}
		pos := make([]int, n)
		seen := make([]bool, n)
		for i, k := range p.Order {
			if k < 0 || k >= n || seen[k] {
				t.Fatalf("topo order %v is not a permutation", p.Order)
			}
			seen[k] = true
			pos[k] = i
		}
		for k, deps := range p.Deps {
			for _, d := range deps {
				if d == k {
					t.Fatalf("kernel %d depends on itself", k)
				}
				if pos[d] >= pos[k] {
					t.Fatalf("topo order %v places dep %d after kernel %d", p.Order, d, k)
				}
			}
		}
		if n <= fuzzMaxKernels {
			checkSchedules(t, p)
		}
	})
}

// fuzzIterations is how many passes each differential run makes, so
// residency carried across iterations is exercised too.
const fuzzIterations = 2

// checkSchedules runs the serial, static, dynamic and HGuided schedules
// on both machines under every GPU model, traced, and checks that each
//
//   - books every kernel exactly once per iteration,
//   - starts no kernel before a dependency's span ends,
//   - keeps serial kernels from overlapping in time,
//   - finishes each iteration no earlier than its critical path, priced
//     at each kernel's faster device, and
//   - replays bit-identically on a fresh machine.
func checkSchedules(t *testing.T, p *Program) {
	t.Helper()
	planners := []*sched.DagPlanner{
		sched.SerialDag(), sched.NewDag(sched.Static), sched.NewDag(sched.Dynamic), sched.NewDag(sched.HGuided),
	}
	type run struct {
		res   Result
		spans []trace.Span
		ctrs  map[string]float64
	}
	execute := func(mk func() *sim.Machine, opt Options) (run, *sim.Machine) {
		m := mk()
		tr := trace.New()
		m.SetTracer(tr)
		res := Execute(m, p, opt)
		return run{res, tr.Spans(), tr.Metrics().Snapshot()}, m
	}
	for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
		for _, model := range modelapi.All() {
			for _, planner := range planners {
				opt := Options{Model: model, Planner: planner, Iterations: fuzzIterations}
				first, m := execute(mk, opt)
				label := m.Name() + " " + opt.String()
				if again, _ := execute(mk, opt); !reflect.DeepEqual(first, again) {
					t.Fatalf("%s: replay on a fresh machine differs", label)
				}
				if want := fuzzIterations * len(p.Spec.Kernels); first.res.Kernels != want ||
					first.res.HostKernels+first.res.AccelKernels != want {
					t.Fatalf("%s: result counts %+v, want %d kernels", label, first.res, want)
				}
				checkIterations(t, label, p, m, model, planner.String() == "serial", first.spans)
			}
		}
	}
}

// checkIterations checks the kernel spans of each traced iteration
// against the program's dependencies and critical path.
func checkIterations(t *testing.T, label string, p *Program, m *sim.Machine, model modelapi.Name, serial bool, spans []trace.Span) {
	t.Helper()
	n := len(p.Spec.Kernels)
	// The critical path, each kernel at its faster device's time, in topo
	// order.
	kernels := p.dagKernels(m, model)
	path := make([]float64, n)
	bound := 0.0
	for _, k := range p.Order {
		best := math.Min(m.HostModel().Kernel(kernels[k].Host).TimeNs, m.AcceleratorModel().Kernel(kernels[k].Accel).TimeNs)
		for _, d := range p.Deps[k] {
			path[k] = math.Max(path[k], path[d])
		}
		path[k] += best
		bound = math.Max(bound, path[k])
	}
	index := make(map[string]int, n)
	for k, kern := range p.Spec.Kernels {
		index[kern.Name] = k
	}

	iterations := 0
	for _, it := range spans {
		if it.Kind != trace.KindIteration {
			continue
		}
		iterations++
		booked := make([]*trace.Span, n)
		var ordered []trace.Span
		for i := range spans {
			s := &spans[i]
			if s.Kind != trace.KindKernel || s.Parent != it.ID {
				continue
			}
			k, ok := index[s.Name]
			if !ok || booked[k] != nil {
				t.Fatalf("%s %s: kernel span %q is unknown or booked twice", label, it.Name, s.Name)
			}
			booked[k] = s
			ordered = append(ordered, *s)
		}
		for k, s := range booked {
			if s == nil {
				t.Fatalf("%s %s: kernel %s never booked", label, it.Name, p.Spec.Kernels[k].Name)
			}
			for _, d := range p.Deps[k] {
				if before(s.StartNs, booked[d].EndNs()) {
					t.Fatalf("%s %s: %s starts at %g before its dependency %s ends at %g",
						label, it.Name, s.Name, s.StartNs, booked[d].Name, booked[d].EndNs())
				}
			}
		}
		if serial {
			sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].StartNs < ordered[j].StartNs })
			for i := 1; i < len(ordered); i++ {
				if before(ordered[i].StartNs, ordered[i-1].EndNs()) {
					t.Fatalf("%s %s: serial kernels %s and %s overlap", label, it.Name, ordered[i-1].Name, ordered[i].Name)
				}
			}
		}
		if before(it.DurNs, bound) {
			t.Fatalf("%s %s: iteration took %g ns, under the %g ns critical path", label, it.Name, it.DurNs, bound)
		}
	}
	if iterations != fuzzIterations {
		t.Fatalf("%s: traced %d iterations, want %d", label, iterations, fuzzIterations)
	}
}

// before reports whether a lies before b by more than float rounding:
// queue positions are offsets added to the queue's start, so a span's
// end and its successor's start may disagree in the last bits.
func before(a, b float64) bool {
	return a < b-1e-9*math.Abs(b)
}
