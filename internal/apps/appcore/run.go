package appcore

import (
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// An app run is two passes. The functional pass executes the kernel
// bodies on a Recorder and yields what they computed: the ordered
// per-launch counters (a Tape) and the app's result digest. It reads no
// device field, and precision and kernel variant only choose how its
// work is priced, so it is a pure function of the app config: every
// kernel tallies its work once per pricing view (View), and a run memo
// shares one pass across every precision × model × machine cell. The
// pricing pass replays the Tape's counters for the cell's view through
// one model's driver on the cell's machine. Play joins the two.

// Precisions are the precisions every functional pass tallies.
var Precisions = [...]timing.Precision{timing.Single, timing.Double}

// View numbers the pricing view that books a functional pass's work at
// prec in tally form form of forms: CoMD's flat or tiled force, miniFE's
// SpMV form, or form 0 of 1 for an app with one form. Views run
// precision-major and index exec.Views.
func View(prec timing.Precision, form, forms int) int {
	if prec == timing.Double {
		return forms + form
	}
	return form
}

// PerView builds the per-view counters of a launch whose work depends on
// the precision alone, in an app with forms tally forms: every form's
// view of prec holds tally(prec).
func PerView(forms int, tally func(prec timing.Precision) exec.Counters) (per exec.Views) {
	for _, prec := range Precisions {
		c := tally(prec)
		for form := range forms {
			per[View(prec, form, forms)] = c
		}
	}
	return per
}

// op is one step of a functional pass that the pricing pass books: a
// kernel launch of items work items whose measured per-item work, in
// every view, is per; or, with per nil, the app's mid-run transfer.
type op struct {
	// kernel indexes the app's kernel table.
	kernel int
	items  int
	per    *exec.Views
}

// Pricer books a run's ops under one model on one machine: an app's
// per-model driver.
type Pricer struct {
	// Launch books a launch of kernel over items work items whose
	// per-item work in the cell's view is per.
	Launch func(kernel, items int, per exec.Counters)
	// Transfer books the app's one kind of mid-run data movement (a
	// readback of partial results, a re-upload of a rebuilt table),
	// sized by the driver from its Problem; nil for a model that moves
	// no data mid-run.
	Transfer func()
}

// Tape is a functional pass's ordered ops plus the bounds of each
// iteration's ops. A recorded Tape is never modified: the run memo hands
// one Tape to every cell, and cells only Replay it.
type Tape struct {
	ops   []op
	iters [][2]int // [lo, hi) of each iteration's ops
}

// Replay books every op's view through p, opening an iteration span on
// m around each iteration's ops, exactly as the functional pass issued
// them.
func (t *Tape) Replay(m *sim.Machine, p *Pricer, view int) {
	pos := 0
	for it, b := range t.iters {
		play(p, t.ops[pos:b[0]], view)
		m.InIteration(it, func() { play(p, t.ops[b[0]:b[1]], view) })
		pos = b[1]
	}
	play(p, t.ops[pos:], view)
}

func play(p *Pricer, ops []op, view int) {
	for i := range ops {
		price(p, &ops[i], view)
	}
}

func price(p *Pricer, o *op, view int) {
	switch {
	case o.per != nil:
		p.Launch(o.kernel, o.items, o.per[view])
	case p.Transfer != nil:
		p.Transfer()
	}
}

// Recorder is the functional pass's driver. It records every launch and
// transfer onto a Tape. A launch executes its body (measuring per-item
// counters in every view) when it is in the functional sample or its
// kernel has not run yet; otherwise it re-uses the kernel's last
// measurement, so iterative apps execute a sample of iterations and
// replay the rest.
//
// A live Recorder also prices each op's view as it records it, through
// the cell's driver on the cell's machine, and binds output arrays as
// the runtime's silent-corruption targets: a bit flip then lands in real
// state mid-run, as it would on hardware.
type Recorder struct {
	tape Tape
	last map[int]*exec.Views
	// live, view and core are the cell's driver, pricing view and
	// runtime core; live and core are nil in a memoized pass.
	live *Pricer
	view int
	core *modelapi.Runtime
}

// Launch records a launch of kernel over n items, executing body when
// functional is set or kernel has no measurement yet.
func (r *Recorder) Launch(kernel, n int, functional bool, body func(*exec.WorkItem)) {
	per, ok := r.last[kernel]
	if functional || !ok {
		per = new(exec.Views)
		*per = exec.Measure(n, body)
		if r.last == nil {
			r.last = make(map[int]*exec.Views)
		}
		r.last[kernel] = per
	}
	r.record(op{kernel: kernel, items: n, per: per})
}

// Transfer records the app's mid-run transfer.
func (r *Recorder) Transfer() { r.record(op{}) }

func (r *Recorder) record(o op) {
	r.tape.ops = append(r.tape.ops, o)
	if r.live != nil {
		price(r.live, &o, r.view)
	}
}

// Iteration records step as the next iteration; a live Recorder wraps it
// in an iteration span on the cell's machine.
func (r *Recorder) Iteration(step func()) {
	lo := len(r.tape.ops)
	if r.live != nil {
		r.core.Machine().InIteration(len(r.tape.iters), step)
	} else {
		step()
	}
	r.tape.iters = append(r.tape.iters, [2]int{lo, len(r.tape.ops)})
}

// Bind registers data as a silent-corruption target of a live
// Recorder's runtime; a memoized pass has no runtime and ignores it.
func (r *Recorder) Bind(name string, data []float64) {
	if r.core != nil {
		r.core.Bind(name, data)
	}
}

// outcome is a memoized functional pass: the Tape and the app's digest
// of what the kernels computed. R must be plain numbers.
type outcome[R any] struct {
	tape *Tape
	res  R
}

// Play books one app run on core's machine through the cell's driver d,
// priced in view, and returns the functional pass's result digest.
// Without a fault injector it replays the outcome the memo holds under
// key, running execute on a fresh Recorder if no cell has yet. A machine
// with an injector bypasses the memo: execute runs on a live Recorder,
// once per cell, so faults strike between real kernel executions. key
// must hold every input the functional pass depends on: the app config,
// never the precision or kernel variant, which only pick the view.
func Play[K comparable, R any](memo *Memo, key K, view int, core *modelapi.Runtime, d Pricer, execute func(*Recorder) R) R {
	if core.Machine().FaultInjector() != nil {
		return execute(&Recorder{live: &d, view: view, core: core})
	}
	o := Memoize(memo, key, func() outcome[R] {
		var rec Recorder
		res := execute(&rec)
		return outcome[R]{&rec.tape, res}
	})
	o.tape.Replay(core.Machine(), &d, view)
	return o.res
}
