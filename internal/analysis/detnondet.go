package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetNonDet is the determinism pass. It flags the nondeterminism hazards
// that would break the golden suite's jobs-determinism contract
// (byte-identical output at any -jobs under a fixed -seed). Three rules
// apply in every package:
//
//   - wall-clock reads (time.Now, time.Since) in result-producing code —
//     virtual-time experiments must derive every timestamp from the
//     simulated clocks;
//   - the global math/rand source (rand.Intn, rand.Float64, ...) — its
//     process-wide state makes draws depend on goroutine interleaving;
//     randomness must flow from rand.New(rand.NewSource(seed));
//   - ranging over a map while feeding an ordered writer (fmt output,
//     strings.Builder/bytes.Buffer writes, or appends to a slice that is
//     never sorted) — map iteration order differs run to run.
//
// Two more apply in the result packages (any import-path segment equal
// to sim, fleet, fault, workload or sched), both reading one per-package
// index of each function's parameters and assignments:
//
//   - the flow rule: a package-internal helper whose return value
//     derives from time.Now/Since — directly, through locals, or through
//     other such helpers — taints its callers, and a laundered value is
//     reported where it reaches a return or an ordered writer. A direct
//     read is reported where it happens, so a //hetlint:allow on it does
//     not silence the callers;
//   - the seed rule (seed.go): PRNG seeds and fault.SubSeed parents must
//     flow from fault.SubSeed, a seed-named source, or a seed parameter,
//     checked interprocedurally.
//
// The index is package-local: calls into other packages and through
// interfaces are not tracked, and the flow rule treats nested function
// literals as opaque.
var DetNonDet = &Analyzer{
	Name: "detnondet",
	Doc:  "flags wall-clock, global-PRNG and map-order nondeterminism, wall-clock values laundered into results, and PRNG seeds not derived from a seed",
	Run:  runDetNonDet,
}

// resultPackages are the import-path segments of the packages whose
// output must be a function of the seed and the virtual clocks; the flow
// and seed rules are scoped to them.
var resultPackages = []string{"sim", "fleet", "fault", "workload", "sched"}

// globalRandFuncs are the math/rand package-level functions that draw
// from the process-wide source. Constructors (New, NewSource, NewZipf)
// are fine: they are how seeded determinism is built.
var globalRandFuncs = []string{
	"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
	"Uint32", "Uint64", "Float32", "Float64",
	"ExpFloat64", "NormFloat64", "Perm", "Shuffle", "Read", "Seed",
}

// orderedWriterMethods are method names that serialize into an ordered
// sink (strings.Builder, bytes.Buffer, any io.Writer wrapper).
var orderedWriterMethods = map[string]bool{
	"WriteString": true, "WriteByte": true, "WriteRune": true,
}

// nondetRead classifies a callee as a wall-clock read or a global
// math/rand draw: the one source test behind the direct, flow and seed
// rules.
type nondetRead int

const (
	noRead nondetRead = iota
	clockRead
	randRead
)

func readOf(obj types.Object) nondetRead {
	switch {
	case isPkgFunc(obj, "time", "Now", "Since"):
		return clockRead
	case isPkgFunc(obj, "math/rand", globalRandFuncs...), isPkgFunc(obj, "math/rand/v2", globalRandFuncs...):
		return randRead
	}
	return noRead
}

// detFn is one function declaration in the package index.
type detFn struct {
	obj     *types.Func
	results []types.Object              // named results
	params  map[types.Object]bool       // parameters, incl. the receiver and nested literals'
	assigns map[types.Object][]ast.Expr // local object -> every assigned right-hand side
	returns []*ast.ReturnStmt           // outside nested function literals
	calls   []detCall
	clock   map[types.Object]bool // locals carrying wall-clock taint
}

// detCall is one call in a declaration, marked when it sits inside a
// nested function literal.
type detCall struct {
	call  *ast.CallExpr
	inLit bool
}

// paramRef locates a top-level declaration's parameter for call-site
// propagation.
type paramRef struct {
	owner *types.Func
	index int
}

// detScan is the determinism pass over one package.
type detScan struct {
	pass    *Pass
	info    *types.Info
	fns     []*detFn
	paramAt map[types.Object]paramRef

	clockFuncs map[*types.Func]bool // helpers whose return carries the clock

	demanded map[types.Object]bool // parameters that must carry a flowed seed
	queue    []types.Object
}

func runDetNonDet(p *Pass) {
	d := &detScan{pass: p, info: p.Pkg.Info, paramAt: make(map[types.Object]paramRef)}
	flow := scopedTo(p.Pkg.Path, "wallclock", resultPackages...)
	seeds := scopedTo(p.Pkg.Path, "seedflow", resultPackages...)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				d.checkDirect(n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRangeWriters(p, n.Body)
					if flow || seeds {
						d.index(n)
					}
				}
			}
			return true
		})
	}
	if flow {
		d.clockFixpoint()
		d.reportClockFlow()
	}
	if seeds {
		d.checkSeeds()
	}
}

// checkDirect is the direct rule: a wall-clock read or global-PRNG draw
// is reported where it happens.
func (d *detScan) checkDirect(call *ast.CallExpr) {
	obj := calleeObj(d.info, call)
	switch readOf(obj) {
	case clockRead:
		d.pass.Reportf(call.Pos(), "time.%s reads the wall clock; results must be a function of the seed and the virtual clocks", obj.Name())
	case randRead:
		d.pass.Reportf(call.Pos(), "rand.%s draws from the global math/rand source; use a rand.New(rand.NewSource(seed)) owned by the run", obj.Name())
	}
}

// index records one declaration's parameters, assignments, returns and
// calls in a single walk.
func (d *detScan) index(fd *ast.FuncDecl) {
	obj, ok := d.info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	fn := &detFn{obj: obj, params: make(map[types.Object]bool), assigns: make(map[types.Object][]ast.Expr)}
	d.addParams(fn, fd.Recv)
	d.addParams(fn, fd.Type.Params)
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
		}
		for _, name := range field.Names {
			if o := d.info.Defs[name]; o != nil {
				d.paramAt[o] = paramRef{owner: obj, index: i}
			}
			i++
		}
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if o := d.info.Defs[name]; o != nil {
					fn.results = append(fn.results, o)
				}
			}
		}
	}
	record := func(lhs, rhs ast.Expr) {
		if id, ok := lhs.(*ast.Ident); ok {
			if o := identObj(d.info, id); o != nil {
				fn.assigns[o] = append(fn.assigns[o], rhs)
			}
		}
	}
	var visit func(inLit bool) func(ast.Node) bool
	visit = func(inLit bool) func(ast.Node) bool {
		return func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// Literal parameters are trusted at the boundary: the
				// values flowing in are classified where the literal is
				// called or handed off.
				d.addParams(fn, n.Type.Params)
				ast.Inspect(n.Body, visit(true))
				return false
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if len(n.Lhs) == len(n.Rhs) {
						record(lhs, n.Rhs[i])
						continue
					}
					for _, rhs := range n.Rhs {
						record(lhs, rhs)
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if len(n.Values) == len(n.Names) {
						record(name, n.Values[i])
						continue
					}
					for _, v := range n.Values {
						record(name, v)
					}
				}
			case *ast.ReturnStmt:
				if !inLit {
					fn.returns = append(fn.returns, n)
				}
			case *ast.CallExpr:
				fn.calls = append(fn.calls, detCall{n, inLit})
			}
			return true
		}
	}
	ast.Inspect(fd.Body, visit(false))
	d.fns = append(d.fns, fn)
}

func (d *detScan) addParams(fn *detFn, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, name := range f.Names {
			if o := d.info.Defs[name]; o != nil {
				fn.params[o] = true
			}
		}
	}
}

// identObj resolves an identifier at a definition or a use.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// clockFixpoint grows the set of clock-returning helpers until stable:
// each round recomputes every other declaration's tainted locals against
// the current set and adds it if a return carries the clock.
func (d *detScan) clockFixpoint() {
	d.clockFuncs = make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fn := range d.fns {
			if d.clockFuncs[fn.obj] {
				continue
			}
			d.clockLocals(fn)
			if d.returnsClock(fn) {
				d.clockFuncs[fn.obj] = true
				changed = true
			}
		}
	}
	// One final round so every local set reflects the complete helper set
	// when reporting.
	for _, fn := range d.fns {
		d.clockLocals(fn)
	}
}

// clockLocals computes fn's clock-tainted locals to a local fixpoint over
// its assignment chains (t := time.Now(); u := t; …).
func (d *detScan) clockLocals(fn *detFn) {
	fn.clock = make(map[types.Object]bool)
	for stable := false; !stable; {
		stable = true
		for o, rhs := range fn.assigns {
			if fn.clock[o] {
				continue
			}
			for _, e := range rhs {
				if _, tainted := d.clockTaint(e, fn.clock); tainted {
					fn.clock[o] = true
					stable = false
					break
				}
			}
		}
	}
}

// namedResultClock reports whether a naked return in fn carries the
// clock through a tainted named result.
func (fn *detFn) namedResultClock() bool {
	for _, o := range fn.results {
		if fn.clock[o] {
			return true
		}
	}
	return false
}

// returnsClock reports whether some return path of fn carries the clock.
func (d *detScan) returnsClock(fn *detFn) bool {
	for _, ret := range fn.returns {
		if len(ret.Results) == 0 && fn.namedResultClock() {
			return true
		}
		for _, r := range ret.Results {
			if _, tainted := d.clockTaint(r, fn.clock); tainted {
				return true
			}
		}
	}
	return false
}

// clockTaint reports whether e carries wall-clock taint and, when the
// taint arrives laundered — through a tainted local or a call to a
// clock-returning helper — names the first such carrier. A direct
// time.Now/Since in e taints without a carrier: the direct rule reports
// it where it happens. Function literals are opaque.
func (d *detScan) clockTaint(e ast.Expr, local map[types.Object]bool) (carrier string, tainted bool) {
	inspectSkipFuncLits(e, func(n ast.Node) bool {
		if carrier != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			obj := calleeObj(d.info, n)
			if readOf(obj) == clockRead {
				tainted = true
			} else if fn, ok := obj.(*types.Func); ok && d.clockFuncs[fn] {
				carrier = fn.Name()
			}
		case *ast.Ident:
			if obj := d.info.Uses[n]; obj != nil && local[obj] {
				carrier = n.Name
			}
		}
		return carrier == ""
	})
	return carrier, tainted || carrier != ""
}

// reportClockFlow is the flow rule: laundered clock values reaching a
// return or an ordered writer.
func (d *detScan) reportClockFlow() {
	for _, fn := range d.fns {
		for _, ret := range fn.returns {
			if len(ret.Results) == 0 && fn.namedResultClock() {
				d.pass.Reportf(ret.Pos(), "return carries a wall-clock-derived value (named result tainted via time.Now/Since); results must derive from the seed and the virtual clocks")
			}
			for _, r := range ret.Results {
				if carrier, _ := d.clockTaint(r, fn.clock); carrier != "" {
					d.pass.Reportf(r.Pos(), "return value derives from the wall clock through %s; results must derive from the seed and the virtual clocks", carrier)
				}
			}
		}
		for _, c := range fn.calls {
			if c.inLit {
				continue
			}
			sink, ok := orderedWriteCall(d.info, c.call)
			if !ok {
				continue
			}
			for _, arg := range c.call.Args {
				if carrier, _ := d.clockTaint(arg, fn.clock); carrier != "" {
					d.pass.Reportf(arg.Pos(), "%s argument derives from the wall clock through %s; result output must derive from the virtual clocks", sink, carrier)
				}
			}
		}
	}
}

// checkMapRangeWriters flags range-over-map loops in fn whose body feeds
// an ordered writer. Appends are exempt when the destination slice is
// also passed to a sort/slices call somewhere in the same function — the
// collect-then-sort idiom is the fix this rule points at.
func checkMapRangeWriters(p *Pass, fn *ast.BlockStmt) {
	info := p.Pkg.Info
	sorted := sortedObjects(info, fn)
	ast.Inspect(fn, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if name, ok := orderedWriteCall(info, m); ok {
					p.Reportf(m.Pos(), "%s inside range over map writes in nondeterministic order; collect the keys and sort first", name)
				}
			case *ast.AssignStmt:
				reportUnsortedAppend(p, m, rng, sorted)
			}
			return true
		})
		return true
	})
}

// orderedWriteCall reports whether call writes to an ordered sink, and
// names the sink for the diagnostic.
func orderedWriteCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := calleeObj(info, call)
	if obj == nil {
		return "", false
	}
	if isPkgFunc(obj, "fmt", "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println") {
		return "fmt." + obj.Name(), true
	}
	if isPkgFunc(obj, "io", "WriteString") {
		return "io.WriteString", true
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil && orderedWriterMethods[fn.Name()] {
			return namedTypeName(sig.Recv().Type()) + "." + fn.Name(), true
		}
	}
	return "", false
}

// reportUnsortedAppend flags `dst = append(dst, ...)` inside a map range
// when dst is declared outside the loop and never sorted in the function.
func reportUnsortedAppend(p *Pass, as *ast.AssignStmt, rng *ast.RangeStmt, sorted map[types.Object]bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return
	}
	if b, ok := p.Pkg.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := identObj(p.Pkg.Info, dst)
	if obj == nil || sorted[obj] {
		return
	}
	// Only slices accumulated across iterations matter: a destination
	// declared inside the loop body is per-iteration scratch.
	if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
		return
	}
	p.Reportf(as.Pos(), "append to %s in map-iteration order is nondeterministic; sort the keys first or sort %s afterwards", dst.Name, dst.Name)
}

// sortedObjects collects every object passed to a sorting call within
// fn: anything in the sort or slices packages, plus local helpers whose
// name starts with "sort" (the repo's sortInt32-style wrappers).
func sortedObjects(info *types.Info, fn *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(info, call)
		fnObj, ok := obj.(*types.Func)
		if !ok || fnObj.Pkg() == nil {
			return true
		}
		path := fnObj.Pkg().Path()
		if path != "sort" && path != "slices" &&
			!strings.HasPrefix(strings.ToLower(fnObj.Name()), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if o := info.Uses[id]; o != nil {
					out[o] = true
				}
			}
		}
		return true
	})
	return out
}
