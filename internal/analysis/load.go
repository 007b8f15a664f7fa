package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package: the unit every analyzer
// runs over. Test files (_test.go) are excluded — the invariants hetlint
// enforces protect result-producing production paths, and tests exercise
// those invariants deliberately, including by violating them.
type Package struct {
	Dir   string // absolute directory
	Path  string // import path ("hetbench/internal/sim")
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages using only the standard library
// and the go command: go/parser for syntax and go/types for checking, so
// hetlint adds no dependency to go.mod. Imports inside the module
// (including testdata fixture stubs, which `go build` never sees) are
// resolved by the loader itself from the module root. Every other import
// goes through one standard-library importer, chosen on the first load
// that needs it: the gc importer over the compiler export data that one
// `go list -export` run reports, or, when `go` is not on PATH, fails, or
// is a different release from the one hetlint was built with, the source
// importer, which type-checks the standard library from GOROOT/src. The
// findings are the same either way; export data is about ten times
// faster. A Loader never mixes the two: each would mint its own
// "time" package, and the types of one would not be identical to those
// of the other.
type Loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer        // nil until a load first needs a non-module import
	exports map[string]string     // import path → export data file ("" if none); nil under the source importer
	parsed  map[string]*parsedPkg // module packages parsed but not yet type-checked
	cache   map[string]*Package
	loading map[string]bool
}

// parsedPkg is a module package parsed ahead of its type check.
type parsedPkg struct {
	dir   string
	files []*ast.File
}

// NewLoader returns a loader rooted at the module enclosing dir. Packages
// are cached across Load/LoadDir calls, so loading the whole module
// type-checks each package once.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	return &Loader{
		fset:    token.NewFileSet(),
		modRoot: modRoot,
		modPath: modPath,
		parsed:  make(map[string]*parsedPkg),
		cache:   make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// ModuleRoot returns the absolute directory of the enclosing module —
// the base SARIF output resolves artifact URIs against, so code-scanning
// annotations land on repository-relative paths regardless of where
// hetlint ran from.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// Import resolves one import path for the type checker: module-internal
// paths load (recursively) through the loader, the rest through the
// loader's standard-library importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.inModule(path) {
		pkg, err := l.LoadDir(l.dirOf(path), path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	l.useStd([]string{path})
	return l.std.Import(path)
}

// LoadDir parses and type-checks the non-test Go files of one directory
// as the package with the given import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if err := l.prepare([]target{{importPath, abs}}); err != nil {
		return nil, err
	}
	return l.check(importPath)
}

// Load resolves go-style package patterns relative to root (the module
// root or any directory inside it) and loads each matched package.
// Supported patterns: "./...", "dir/...", plain directory paths, and
// absolute directories.
func (l *Loader) Load(root string, patterns []string) ([]*Package, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	dirs := make(map[string]bool)
	resolve := func(p string) string {
		if filepath.IsAbs(p) {
			return filepath.Clean(p)
		}
		return filepath.Join(absRoot, p)
	}
	for _, pat := range patterns {
		switch {
		case pat == "all" || pat == "./...":
			if err := walkPackageDirs(absRoot, dirs); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := resolve(strings.TrimSuffix(pat, "/..."))
			if err := walkPackageDirs(base, dirs); err != nil {
				return nil, err
			}
		default:
			dirs[resolve(pat)] = true
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	targets := make([]target, 0, len(sorted))
	for _, dir := range sorted {
		rel, err := filepath.Rel(l.modRoot, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.modPath
		if rel != "." {
			importPath = l.modPath + "/" + filepath.ToSlash(rel)
		}
		targets = append(targets, target{importPath, dir})
	}
	if err := l.prepare(targets); err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		pkg, err := l.check(t.path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// target names one module package to load.
type target struct{ path, dir string }

// prepare parses the targets and, transitively, every module package
// they import, then settles the standard-library importer for the
// non-module imports it saw — all before any type-checking, so one
// `go list` covers the whole load.
func (l *Loader) prepare(queue []target) error {
	std := make(map[string]bool)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if l.cache[t.path] != nil || l.parsed[t.path] != nil {
			continue
		}
		files, err := l.parseDir(t.dir)
		if err != nil {
			return err
		}
		l.parsed[t.path] = &parsedPkg{dir: t.dir, files: files}
		for _, f := range files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue // the type checker reports it
				}
				if l.inModule(path) {
					queue = append(queue, target{path, l.dirOf(path)})
				} else {
					std[path] = true
				}
			}
		}
	}
	paths := make([]string, 0, len(std))
	for p := range std {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	l.useStd(paths)
	return nil
}

// parseDir parses the directory's non-test Go files.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one parsed package, loading its module imports first
// through Import.
func (l *Loader) check(importPath string) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	src := l.parsed[importPath]
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.fset, src.files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	loaded := &Package{Dir: src.dir, Path: importPath, Fset: l.fset, Files: src.files, Pkg: pkg, Info: info}
	l.cache[importPath] = loaded
	delete(l.parsed, importPath)
	return loaded, nil
}

// useStd makes sure the standard-library importer can resolve paths. The
// first call with any path picks the importer for the Loader's lifetime;
// later calls under export data list only the paths not seen before.
func (l *Loader) useStd(paths []string) {
	if l.std == nil {
		if len(paths) == 0 {
			return
		}
		l.std = importer.ForCompiler(l.fset, "source", nil)
		if goMatchesRuntime(l.modRoot) {
			if exports, err := goListExports(l.modRoot, paths); err == nil {
				l.exports = exports
				l.std = importer.ForCompiler(l.fset, "gc", l.openExport)
			}
		}
		return
	}
	if l.exports == nil {
		return
	}
	var missing []string
	for _, p := range paths {
		if _, ok := l.exports[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return
	}
	// A failed listing leaves the paths without export data, so importing
	// them fails with a type error naming the path.
	for _, p := range missing {
		l.exports[p] = ""
	}
	exports, _ := goListExports(l.modRoot, missing)
	maps.Copy(l.exports, exports)
}

// openExport is the gc importer's lookup: it opens a package's export data.
func (l *Loader) openExport(path string) (io.ReadCloser, error) {
	file := l.exports[path]
	if file == "" {
		return nil, fmt.Errorf("analysis: no export data for %s", path)
	}
	return os.Open(file)
}

// goMatchesRuntime reports whether the go on PATH is the release this
// binary was built with: export data is release-specific.
func goMatchesRuntime(dir string) bool {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = dir
	out, err := cmd.Output()
	return err == nil && strings.TrimSpace(string(out)) == runtime.Version()
}

// goListExports runs `go list -export` in dir over paths and their
// dependencies and maps each import path to its export data file. Paths
// with no export data, such as "unsafe", map to "", so that they are not
// listed again.
func goListExports(dir string, paths []string) (map[string]string, error) {
	args := append([]string{"list", "-e", "-deps", "-export",
		"-f", "{{if .Export}}{{.ImportPath}} {{.Export}}{{end}}"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range paths {
		exports[p] = ""
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			exports[path] = file
		}
	}
	return exports, nil
}

// inModule reports whether path names a package of the loader's module.
func (l *Loader) inModule(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// dirOf returns the directory of a module package's import path.
func (l *Loader) dirOf(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	return filepath.Join(l.modRoot, filepath.FromSlash(rel))
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// walkPackageDirs records every directory under base that holds at least
// one non-test Go file, skipping testdata, vendor and hidden trees.
func walkPackageDirs(base string, dirs map[string]bool) error {
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs[path] = true
		}
		return nil
	})
}

// goFilesIn lists the directory's non-test Go files in sorted order.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
