package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// The seed rule of the determinism pass, applied in the result packages:
// every seed handed to a PRNG constructor (rand.NewSource, rand/v2's
// NewPCG, NewChaCha8) and every parent handed to fault.SubSeed must flow
// from a recognized seed source —
//
//   - a fault.SubSeed derivation,
//   - a seed-named field, constant or package variable (cfg.Seed,
//     spec.Seed, defaultSeed, …), or
//   - a function parameter, in which case the obligation moves to every
//     in-package caller of that parameter (the interprocedural step: a
//     helper taking `seed int64` is innocent, its caller passing
//     time.Now().UnixNano() is not).
//
// Wall-clock reads, global math/rand draws, PRNG draws and ad-hoc literals
// are rejected: a literal seed silently pins a stream the harness believes
// it controls, and a clock seed breaks replay outright. Parameters of
// exported functions whose callers live outside the package are trusted at
// the boundary, as are function-literal parameters.

// Seed taint ranks. Dirty dominates literal and blessed; blessed absorbs
// literal (seed + stream-offset literal arithmetic is the SubSeed idiom's
// moral equivalent and stays blessed).
const (
	seedBlessed = iota // flows from a recognized seed source
	seedLiteral        // an ad-hoc constant
	seedDirty          // wall clock, global rand, or untraceable
)

// seedClass is the classification of one expression: its rank, a
// diagnostic phrase for the tainting source, and — for blessed
// expressions — the parameters the blessing rests on, which become
// call-site obligations.
type seedClass struct {
	rank   int
	why    string
	params []types.Object
}

// checkSeeds classifies every direct seed consumer — PRNG constructor
// seed arguments and fault.SubSeed parent arguments — then propagates
// the parameter obligations they create to a fixpoint.
func (d *detScan) checkSeeds() {
	d.demanded = make(map[types.Object]bool)
	for _, fn := range d.fns {
		for _, c := range fn.calls {
			obj := calleeObj(d.info, c.call)
			if idxs := seedCtorArgIndexes(obj); idxs != nil {
				for _, i := range idxs {
					if i < len(c.call.Args) {
						d.demandAt(c.call.Args[i], fn, fmt.Sprintf("%s seed", obj.Name()))
					}
				}
				continue
			}
			if isFuncNamed(obj, "fault", "SubSeed") && len(c.call.Args) >= 1 {
				d.demandAt(c.call.Args[0], fn, "fault.SubSeed parent")
			}
		}
	}
	d.propagateSeeds()
}

// seedCtorArgIndexes returns the seed-argument positions of a PRNG
// constructor call, or nil.
func seedCtorArgIndexes(obj types.Object) []int {
	switch {
	case isPkgFunc(obj, "math/rand", "NewSource"):
		return []int{0}
	case isPkgFunc(obj, "math/rand/v2", "NewPCG"):
		return []int{0, 1}
	case isPkgFunc(obj, "math/rand/v2", "NewChaCha8"):
		return []int{0}
	}
	return nil
}

// isFuncNamed matches a package-level function by package *name* rather
// than import path, so the testdata fault stub stands in for the real
// internal/fault exactly like isMethodOn's name matching does.
func isFuncNamed(obj types.Object, pkgName, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != pkgName {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return fn.Name() == name
}

// seedish reports whether a name marks a seed by convention.
func seedish(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// demandAt classifies one seed-position expression and reports or
// propagates accordingly.
func (d *detScan) demandAt(e ast.Expr, fn *detFn, what string) {
	c := d.classify(e, fn, make(map[types.Object]bool))
	switch c.rank {
	case seedDirty:
		d.pass.Reportf(e.Pos(), "%s derives from %s; seeds must flow from fault.SubSeed or an explicit seed parameter", what, c.why)
	case seedLiteral:
		why := c.why
		if why == "" {
			why = "an ad-hoc literal"
		}
		d.pass.Reportf(e.Pos(), "%s is %s; derive it with fault.SubSeed(parent, stream) or accept a seed parameter", what, why)
	default:
		for _, p := range c.params {
			if !d.demanded[p] {
				d.demanded[p] = true
				d.queue = append(d.queue, p)
			}
		}
	}
}

// propagateSeeds is the interprocedural fixpoint: for every demanded
// parameter, each in-package call site's corresponding argument is
// classified like a direct seed, possibly demanding further parameters.
func (d *detScan) propagateSeeds() {
	for len(d.queue) > 0 {
		obj := d.queue[0]
		d.queue = d.queue[1:]
		ref, ok := d.paramAt[obj]
		if !ok {
			continue // function-literal parameter: trusted boundary
		}
		for _, fn := range d.fns {
			for _, c := range fn.calls {
				if calleeObj(d.info, c.call) != types.Object(ref.owner) || ref.index >= len(c.call.Args) {
					continue
				}
				d.demandAt(c.call.Args[ref.index], fn,
					fmt.Sprintf("seed parameter %q of %s", obj.Name(), ref.owner.Name()))
			}
		}
	}
}

// classify ranks one expression's fitness as a seed.
func (d *detScan) classify(e ast.Expr, fn *detFn, visiting map[types.Object]bool) seedClass {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return seedClass{rank: seedLiteral, why: fmt.Sprintf("the ad-hoc literal %s", e.Value)}
	case *ast.UnaryExpr:
		return d.classify(e.X, fn, visiting)
	case *ast.BinaryExpr:
		return combineSeed(d.classify(e.X, fn, visiting), d.classify(e.Y, fn, visiting))
	case *ast.CallExpr:
		return d.classifyCall(e, fn, visiting)
	case *ast.Ident:
		return d.classifyIdent(e, fn, visiting)
	case *ast.SelectorExpr:
		return d.classifySelector(e)
	case *ast.IndexExpr:
		return d.classify(e.X, fn, visiting)
	}
	return seedClass{rank: seedDirty, why: "an expression hetlint cannot trace to a seed source"}
}

func (d *detScan) classifyIdent(e *ast.Ident, fn *detFn, visiting map[types.Object]bool) seedClass {
	obj := identObj(d.info, e)
	if obj == nil {
		return seedClass{rank: seedDirty, why: fmt.Sprintf("the untraceable identifier %s", e.Name)}
	}
	switch o := obj.(type) {
	case *types.Const:
		if seedish(o.Name()) {
			return seedClass{rank: seedBlessed}
		}
		return seedClass{rank: seedLiteral, why: fmt.Sprintf("the ad-hoc constant %s", o.Name())}
	case *types.Var:
		if fn.params[o] {
			return seedClass{rank: seedBlessed, params: []types.Object{o}}
		}
		if seedish(o.Name()) && o.Parent() == d.pass.Pkg.Pkg.Scope() {
			return seedClass{rank: seedBlessed}
		}
		rhs := fn.assigns[o]
		if len(rhs) == 0 {
			return seedClass{rank: seedDirty, why: fmt.Sprintf("%s, which hetlint cannot trace to a seed source", o.Name())}
		}
		if visiting[o] {
			// Self-referential assignment (seed = seed + 1): neutral, the
			// other assignments decide.
			return seedClass{rank: seedLiteral}
		}
		visiting[o] = true
		c := d.classify(rhs[0], fn, visiting)
		for _, r := range rhs[1:] {
			c = combineSeed(c, d.classify(r, fn, visiting))
		}
		delete(visiting, o)
		return c
	}
	return seedClass{rank: seedDirty, why: fmt.Sprintf("%s, which is not a value", e.Name)}
}

func (d *detScan) classifySelector(e *ast.SelectorExpr) seedClass {
	obj := d.info.Uses[e.Sel]
	if c, ok := obj.(*types.Const); ok {
		if seedish(c.Name()) {
			return seedClass{rank: seedBlessed}
		}
		return seedClass{rank: seedLiteral, why: fmt.Sprintf("the ad-hoc constant %s", c.Name())}
	}
	if seedish(e.Sel.Name) {
		return seedClass{rank: seedBlessed} // cfg.Seed, spec.Seed, …
	}
	return seedClass{rank: seedDirty, why: fmt.Sprintf("%s, which is not a seed-named source", types.ExprString(e))}
}

func (d *detScan) classifyCall(call *ast.CallExpr, fn *detFn, visiting map[types.Object]bool) seedClass {
	if tv, ok := d.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return d.classify(call.Args[0], fn, visiting) // conversion: int64(x)
	}
	obj := calleeObj(d.info, call)
	if obj == nil {
		return seedClass{rank: seedDirty, why: "an untraceable call"}
	}
	switch readOf(obj) {
	case clockRead:
		return seedClass{rank: seedDirty, why: fmt.Sprintf("the wall clock (time.%s)", obj.Name())}
	case randRead:
		return seedClass{rank: seedDirty, why: fmt.Sprintf("the global math/rand source (rand.%s)", obj.Name())}
	}
	if isFuncNamed(obj, "fault", "SubSeed") {
		// The parent argument is checked at the SubSeed call itself
		// (checkSeeds), so the derived value is clean here.
		return seedClass{rank: seedBlessed}
	}
	if fnT, ok := obj.(*types.Func); ok {
		if sig, ok := fnT.Type().(*types.Signature); ok && sig.Recv() != nil {
			switch namedTypeName(sig.Recv().Type()) {
			case "Time":
				if c := d.classifyTimeRecv(call, fn, visiting); c.rank == seedDirty {
					return c
				}
				return seedClass{rank: seedDirty, why: "a time.Time value"}
			case "Rand", "PCG", "ChaCha8", "Source":
				return seedClass{rank: seedDirty, why: "a PRNG draw; derive child seeds with fault.SubSeed, not by drawing from a generator"}
			}
		}
	}
	if seedish(obj.Name()) {
		return seedClass{rank: seedBlessed} // a seed-derivation helper; its own consumers are checked where they sit
	}
	return seedClass{rank: seedDirty, why: fmt.Sprintf("the result of %s, which is not a recognized seed derivation", obj.Name())}
}

// classifyTimeRecv ranks the receiver of a time.Time method call, so
// time.Now().UnixNano() names the wall clock rather than the generic
// "a time.Time value".
func (d *detScan) classifyTimeRecv(call *ast.CallExpr, fn *detFn, visiting map[types.Object]bool) seedClass {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return d.classify(sel.X, fn, visiting)
	}
	return seedClass{rank: seedBlessed}
}

// combineSeed folds two operand classifications: dirty dominates,
// blessed absorbs literal (blessings' parameter obligations merge).
func combineSeed(a, b seedClass) seedClass {
	if a.rank == seedDirty {
		return a
	}
	if b.rank == seedDirty {
		return b
	}
	if a.rank == seedBlessed && b.rank == seedBlessed {
		return seedClass{rank: seedBlessed, params: append(append([]types.Object{}, a.params...), b.params...)}
	}
	if a.rank == seedBlessed {
		return a
	}
	if b.rank == seedBlessed {
		return b
	}
	if a.why == "" {
		return b
	}
	return a
}
