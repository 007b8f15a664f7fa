// Package analysis is hetlint's stdlib-only static-analysis driver. It
// loads every package in the module (go/parser + go/types, no external
// dependencies) and runs two domain analyzers, each guarding a
// convention that no test or type checks:
//
//   - detnondet:   no wall-clock or global-PRNG nondeterminism in
//     result-producing code (the TestGolden jobs-determinism contract);
//     in the result packages (sim, fleet, fault, workload, sched) a
//     wall-clock value laundered through package-internal helpers or
//     locals is reported where it reaches a return or ordered output,
//     and every rand.NewSource/NewPCG seed and fault.SubSeed parent must
//     flow from fault.SubSeed or an explicit seed parameter, checked
//     interprocedurally;
//   - ctxflow:     request-handling code in service packages never
//     conjures a fresh context.Background()/context.TODO() — contexts
//     derive from the request so disconnects and deadlines propagate.
//
// Rules the tree enforces another way are not here: sim.Machine's
// closure-scoped spans cannot be left open; the resilience and service
// tests fail when a fault event is dropped or a goroutine or mutex is
// not released; and trace.Registry takes typed counter and histogram
// names and checks each one when it exports it.
//
// Intentional violations are annotated in source with
//
//	//hetlint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. The driver reports
// misspelled and unused directives itself, so a suppression cannot
// silently outlive the code it excused.
//
// RunAnalyzersParallel analyzes packages on a bounded worker pool with a
// deterministic merge, so the finding list is bit-identical at any
// worker count — the same ethos as the experiment runner.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Finding is one diagnostic: an invariant violation, or a problem with a
// suppression directive (Analyzer == DirectiveName).
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the go vet-style one-line form "file:line: [analyzer] msg".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one named rule run over each loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (package, analyzer) run; analyzers report through it.
type Pass struct {
	Pkg    *Package
	report func(pos token.Pos, msg string)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Analyzers returns hetlint's rule set in its fixed presentation order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetNonDet, CtxFlow,
	}
}

// DirectiveName is the pseudo-analyzer findings about the //hetlint:allow
// directives themselves are attributed to. It is not suppressible.
const DirectiveName = "directive"

// RunAnalyzers runs the analyzers over each package serially. It is
// RunAnalyzersParallel at one worker; see there for the semantics.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return RunAnalyzersParallel(pkgs, analyzers, 1)
}

// RunAnalyzersParallel runs the analyzers over the packages on a bounded
// pool of workers, applies the //hetlint:allow directives, and returns
// the surviving findings sorted by position. Directive problems (unknown
// analyzer, missing reason, unused suppression) are reported as
// DirectiveName findings.
//
// Determinism contract: each package is analyzed independently (loaded
// type information is read-only by the time this runs), per-package
// findings land in a slot indexed by package order, and the final merge
// sorts by position — so the result is bit-identical at any worker
// count, exactly like the experiment runner's cell merge.
//
// Directive validity is judged against the full registry plus the passed
// analyzers, so running a subset with -only does not misreport the other
// analyzers' suppressions as misspelled; the unused-directive check
// applies only to directives naming an analyzer that actually ran.
func RunAnalyzersParallel(pkgs []*Package, analyzers []*Analyzer, workers int) []Finding {
	if workers < 1 {
		workers = 1
	}
	known := make(map[string]bool, len(analyzers))
	running := make(map[string]bool, len(analyzers))
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
		running[a.Name] = true
	}

	perPkg := make([][]Finding, len(pkgs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			perPkg[i] = analyzePackage(pkg, analyzers, known, running)
		}(i, pkg)
	}
	wg.Wait()

	var out []Finding
	for _, fs := range perPkg {
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// analyzePackage runs every analyzer over one package and resolves its
// suppression directives; it touches no shared state, so packages can be
// analyzed concurrently.
func analyzePackage(pkg *Package, analyzers []*Analyzer, known, running map[string]bool) []Finding {
	var out []Finding
	dirs := parseDirectives(pkg, known, &out)
	var raw []Finding
	for _, a := range analyzers {
		pass := &Pass{Pkg: pkg}
		name := a.Name
		pass.report = func(pos token.Pos, msg string) {
			raw = append(raw, Finding{Pos: pkg.Fset.Position(pos), Analyzer: name, Message: msg})
		}
		a.Run(pass)
	}
	for _, f := range raw {
		if d := matchDirective(dirs, f); d != nil {
			d.used = true
			continue
		}
		out = append(out, f)
	}
	for _, d := range dirs {
		if !d.used && running[d.analyzer] {
			out = append(out, Finding{
				Pos:      token.Position{Filename: d.file, Line: d.line},
				Analyzer: DirectiveName,
				Message: fmt.Sprintf("unused //hetlint:allow %s directive: no %s finding on this or the next line",
					d.analyzer, d.analyzer),
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Shared type/AST helpers for the analyzers.

// calleeObj resolves a call's callee to its types.Object (function or
// method), or nil for builtins, conversions and indirect calls.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the package-level function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath string, names ...string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// namedTypeName returns the name of t's (pointer-dereferenced) named
// type, or "".
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// inspectSkipFuncLits walks n calling fn, without descending into nested
// function literals (their control flow is not the enclosing function's).
func inspectSkipFuncLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}
