package analysis

import (
	"go/ast"
	"strings"
)

// CtxFlow guards hetbenchd's cancellation plumbing: inside a service
// package (any import-path segment equal to "service"), request-handling
// code must thread the caller's context — a fresh context.Background()
// or context.TODO() silently severs the chain that lets client
// disconnects and per-request deadlines cancel in-flight simulation
// work. Code that deliberately outlives one request (a run shared by
// several deduplicated requests, a daemon-lifetime root) derives from
// the request via context.WithoutCancel, or carries a
// //hetlint:allow ctxflow directive naming why.
var CtxFlow = &Analyzer{
	Name:     "ctxflow",
	Doc:      "flags context.Background()/context.TODO() in service request-handling packages",
	Severity: SeverityError,
	Run:      runCtxFlow,
}

func runCtxFlow(p *Pass) {
	if !scopedTo(p.Pkg.Path, "ctxflow", "service") {
		return
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(info, call)
			if isPkgFunc(obj, "context", "Background", "TODO") {
				p.Reportf(call.Pos(), "context.%s() severs cancellation from the request; thread the caller's ctx (or derive a detached one with context.WithoutCancel)", obj.Name())
			}
			return true
		})
	}
}

// scopedTo reports whether the package at path is inside a scoped
// rule's territory: either some "/"-separated segment of the import path
// equals one of the scope segments (internal/service and its subpackages
// match "service"), or the package is the rule's analysis fixture
// directory (testdata/src/<fixture>), so fixture packages exercise scoped
// rules without masquerading as real package paths. Fixtures with other
// names (ctxflowfree, …) stay out of scope, which is how the
// out-of-scope negative fixtures work.
func scopedTo(path, fixture string, segments ...string) bool {
	segs := strings.Split(path, "/")
	if strings.Contains(path, "/testdata/src/") && segs[len(segs)-1] == fixture {
		return true
	}
	for _, seg := range segs {
		for _, want := range segments {
			if seg == want {
				return true
			}
		}
	}
	return false
}
