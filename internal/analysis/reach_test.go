package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachExempt names the functions kept without a non-test caller, each
// with its reason: tests compare the production paths against them.
var reachExempt = map[string]string{
	"(*hetbench/internal/apps/readmem.Problem).ReferenceSums": "serial reference the readmem kernels are checked against",
	"(*hetbench/internal/apps/comd.State).TotalMomentum":      "momentum conservation check of the CoMD integrator",
	"hetbench/internal/sim.NewCustom":                         "builds the small-LLC machine the run-memo tests price cells on",
	"hetbench/internal/report.WriteBenchFile":                 "writes BENCH_hotpath.json when the root TestWriteBenchHotpath regenerates it",
	"(*hetbench/internal/memo.Map[K, V]).Len":                 "lets the harness memo tests see that cells went through the run memo",
}

// reachSkip lists the test-support packages: only tests import them.
var reachSkip = map[string]bool{
	"hetbench/internal/analysis/analysistest": true,
	"hetbench/internal/service/chaostest":     true,
}

// TestEveryFuncHasANonTestCaller keeps the API to what the programs use:
// every function and method declared in a non-test file must be
// referenced from another non-test file of the module (cmd/, examples/,
// internal/) or by name from the benchmark driver in _perfbench. A
// method is exempt when its receiver implements an interface, declared in
// the module or in a package it imports, that has a method of that name:
// calls through the interface do not resolve to it.
func TestEveryFuncHasANonTestCaller(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(l.ModuleRoot(), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}

	type decl struct {
		fn       *types.Func
		pos, end token.Pos
	}
	var decls []decl
	declOf := make(map[*types.Func]decl)
	for _, p := range pkgs {
		if reachSkip[p.Path] {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || (fd.Recv == nil && (fn.Name() == "main" || fn.Name() == "init")) {
					continue
				}
				dd := decl{fn, fd.Pos(), fd.End()}
				decls = append(decls, dd)
				declOf[fn] = dd
			}
		}
	}

	// A use inside the function's own body (recursion) does not count.
	used := make(map[*types.Func]bool)
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d, ok := declOf[fn]; ok && id.Pos() >= d.pos && id.Pos() < d.end {
				continue
			}
			used[fn] = true
		}
	}

	ifaces := interfaceTypes(pkgs)
	benchQualified, benchMethods := perfbenchSelectors(t, filepath.Join(l.ModuleRoot(), "_perfbench"))

	var unused []string
	exempted := make(map[string]bool)
	for _, d := range decls {
		fn := d.fn
		method := fn.Type().(*types.Signature).Recv() != nil
		switch {
		case used[fn]:
		case method && (benchMethods[fn.Name()] || implementsMethod(fn, ifaces)):
		case !method && benchQualified[fn.Pkg().Path()+"."+fn.Name()]:
		case reachExempt[fn.FullName()] != "":
			exempted[fn.FullName()] = true
		default:
			unused = append(unused, l.fset.Position(d.pos).String()+": "+fn.FullName())
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests", u)
	}
	for name := range reachExempt {
		if !exempted[name] {
			t.Errorf("exemption %s names no function that needs it", name)
		}
	}
}

// interfaceTypes returns every non-generic interface type declared at
// package level in the loaded packages or in any package they import,
// transitively, plus error and the anonymous Unwrap interface errors.Is
// and errors.As call through.
func interfaceTypes(pkgs []*Package) []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", errType)), false))
	out := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Pkg)
	}
	return out
}

// implementsMethod reports whether the method's receiver type, or a
// pointer to it, implements one of ifaces that has a method of its name.
func implementsMethod(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// perfbenchSelectors parses the benchmark driver's Go files, which live
// in their own module, and returns the package-level functions it names
// as "importpath.Name" and every other selector name, which may be a
// method.
func perfbenchSelectors(t *testing.T, dir string) (qualified, methods map[string]bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	qualified, methods = make(map[string]bool), make(map[string]bool)
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imports := make(map[string]string)
		for _, is := range f.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil {
				if path, ok := imports[x.Name]; ok {
					qualified[path+"."+sel.Sel.Name] = true
					return true
				}
			}
			methods[sel.Sel.Name] = true
			return true
		})
	}
	return qualified, methods
}
