package analysis

import (
	"go/ast"
	"go/types"
)

// SpanLeak is the acquire/release pass. Each row of acquireRules names
// an acquiring call and its release, and every acquisition must reach
// the release on all control-flow paths out of the acquiring function:
// via defer (covers every exit) or via explicit releases that
// structurally dominate each return, break-out and fall-through.
//
//   - spans: every sim.ActiveSpan opened by Machine.StartSpan/StartRun/
//     StartIteration must reach End on the same local object, in every
//     package. A span that never ends is silently dropped by the tracer —
//     the hierarchy under it reparents wrongly and the Chrome export
//     lies. A discarded result is always a leak; spans that escape the
//     local scope (returned, stored, passed along) are the caller's
//     responsibility and are skipped.
//   - mutexes: in the service and fleet packages (any import-path
//     segment equal to "service" or "fleet"), every sync.Mutex/RWMutex
//     Lock must reach Unlock, and RLock RUnlock, on the same receiver
//     (matched by its source rendering, "s.mu"). A Lock that can exit
//     without Unlock is a deadlock the chaos suite only finds when the
//     rare path fires.
//
// The path check is the shared block-structured dominator approximation
// in flow.go; paths that panic are exempt.
var SpanLeak = &Analyzer{
	Name:     "spanleak",
	Doc:      "checks StartSpan/StartRun/StartIteration results reach End, and service/fleet Mutex/RWMutex locks reach Unlock, on all control-flow paths",
	Severity: SeverityError,
	Run:      runSpanLeak,
}

// acquireRule is one row of the acquire/release table.
type acquireRule struct {
	recv     []string          // receiver type names of the acquiring methods
	releases map[string]string // acquiring method -> releasing method
	// result, when set, is the type of the acquired resource: the call's
	// result, held in a local. Otherwise the resource is the receiver.
	result  string
	fixture string   // with scope: the testdata fixture that opts in
	scope   []string // import-path segments the row is limited to; nil: every package
	discard string   // finding for a dropped result; %s is the acquiring method
	leak    string   // finding for a path that skips the release; %[1]s resource, %[2]s acquiring and %[3]s releasing method
}

var acquireRules = []*acquireRule{
	{
		recv:     []string{"Machine"},
		releases: map[string]string{"StartSpan": "End", "StartRun": "End", "StartIteration": "End"},
		result:   "ActiveSpan",
		discard:  "result of %s discarded; the span can never End",
		leak:     "span %[1]s from %[2]s is not closed on every path; defer %[1]s.End() or End before each return",
	},
	{
		recv:     []string{"Mutex", "RWMutex"},
		releases: map[string]string{"Lock": "Unlock", "RLock": "RUnlock"},
		fixture:  "lockbalance",
		scope:    []string{"service", "fleet"},
		leak:     "%[1]s.%[2]s() does not reach %[1]s.%[3]s() on every path; defer the unlock or release before each exit",
	},
}

func runSpanLeak(p *Pass) {
	var rules []*acquireRule
	for _, r := range acquireRules {
		if r.scope == nil || scopedTo(p.Pkg.Path, r.fixture, r.scope...) {
			rules = append(rules, r)
		}
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		var parents map[ast.Node]ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := calleeObj(info, call).(*types.Func)
			if !ok {
				return true
			}
			for _, r := range rules {
				if r.acquires(fn) {
					if parents == nil {
						parents = buildParents(f)
					}
					r.check(p, parents, call, fn.Name())
				}
			}
			return true
		})
	}
}

// acquires reports whether fn is one of the row's acquiring methods.
func (r *acquireRule) acquires(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if _, ok := r.releases[fn.Name()]; !ok {
		return false
	}
	name := namedTypeName(recv.Type())
	for _, t := range r.recv {
		if name == t {
			return true
		}
	}
	return false
}

// check finds the resource one acquiring call holds and the statement
// that acquires it, then runs the path check.
func (r *acquireRule) check(p *Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr, method string) {
	info := p.Pkg.Info
	var handle ast.Expr
	var stmt ast.Stmt
	if r.result != "" {
		if tv, ok := info.Types[call]; !ok || namedTypeName(tv.Type) != r.result {
			return
		}
		switch parent := parents[call].(type) {
		case *ast.ExprStmt:
			p.Reportf(call.Pos(), r.discard, method)
			return
		case *ast.AssignStmt:
			if len(parent.Lhs) != 1 || len(parent.Rhs) != 1 || parent.Rhs[0] != ast.Expr(call) {
				return
			}
			id, ok := parent.Lhs[0].(*ast.Ident)
			if !ok {
				return
			}
			if id.Name == "_" {
				p.Reportf(call.Pos(), r.discard, method)
				return
			}
			handle, stmt = id, parent
		default:
			return
		}
	} else {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		es, isStmt := parents[call].(*ast.ExprStmt)
		if !ok || !isStmt {
			return // not a statement-level acquisition
		}
		handle, stmt = sel.X, es
	}
	fnBody := enclosingFunc(parents, stmt)
	if fnBody == nil {
		return
	}
	release := r.releases[method]
	pc := &pathCheck{info: info, closes: releasesOn(info, handle, release)}
	if pc.deferredClose(fnBody) || !pc.leaksFrom(parents, fnBody, stmt) {
		return
	}
	p.Reportf(call.Pos(), r.leak, types.ExprString(handle), method, release)
}

// releasesOn builds a closer matching <handle>.<release>(...). An
// identifier handle matches by object, so a shadowing local of the same
// name does not count; any other handle matches by source rendering.
func releasesOn(info *types.Info, handle ast.Expr, release string) closer {
	var obj types.Object
	if id, ok := handle.(*ast.Ident); ok {
		obj = identObj(info, id)
	}
	render := types.ExprString(handle)
	return func(call *ast.CallExpr) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != release {
			return false
		}
		if obj != nil {
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			return ok && info.Uses[id] == obj
		}
		return types.ExprString(sel.X) == render
	}
}
