// Command hetlint runs hetbench's domain static analyzers over the
// module: detnondet (jobs-determinism hazards, including wall-clock taint
// laundered through package-internal helpers and seeds not derived from
// fault.SubSeed or a seed parameter) and ctxflow (severed cancellation in
// service packages). See internal/analysis for the rules and the
// //hetlint:allow suppression directive.
//
// Usage:
//
//	hetlint [-list] [-only analyzer[,analyzer]] [-format text|json|sarif] [-jobs n]
//	        [-cpuprofile file] [-memprofile file] [packages]
//
// Packages default to ./... resolved against the enclosing module.
// Packages are analyzed on a bounded worker pool (-jobs, default
// GOMAXPROCS) with a deterministic merge: the finding list is
// bit-identical at any worker count.
//
// Output formats: text (default) prints one finding per line as
// "file:line: [analyzer] message", go vet-style, with paths relative to
// the working directory; json prints a flat array of finding objects;
// sarif prints a SARIF 2.1.0 log with module-root-relative paths for
// code-scanning upload.
//
// -cpuprofile and -memprofile write pprof profiles of the run; the
// findings are the same with or without them.
//
// Exit status: 0 when no findings survive suppression, 1 when findings
// are reported, 2 on usage, load or profile-writing errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"hetbench/internal/analysis"
	"hetbench/internal/profiling"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) (code int) {
	fs := flag.NewFlagSet("hetlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "packages analyzed in parallel (findings are identical at any value)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the load and analysis to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file when the analysis ends")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: hetlint [-list] [-only analyzer[,analyzer]] [-format text|json|sarif] [-jobs n] [-cpuprofile file] [-memprofile file] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(stderr, "hetlint: unknown format %q (want text, json, or sarif)\n", *format)
		return 2
	}
	if *only != "" {
		var err error
		if analyzers, err = selectAnalyzers(analyzers, *only); err != nil {
			fmt.Fprintf(stderr, "hetlint: %v\n", err)
			return 2
		}
	}

	stopProfile, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "hetlint: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(stderr, "hetlint: %v\n", err)
			code = 2
		}
	}()

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "hetlint: %v\n", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "hetlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "hetlint: %v\n", err)
		return 2
	}

	findings := analysis.RunAnalyzersParallel(pkgs, analyzers, *jobs)
	// SARIF artifact URIs must be repository-relative for code-scanning
	// annotation; text and json stay relative to where hetlint ran.
	base := cwd
	if *format == "sarif" {
		base = loader.ModuleRoot()
	}
	for i := range findings {
		findings[i].Pos.Filename = relPath(base, findings[i].Pos.Filename)
	}

	var werr error
	switch *format {
	case "text":
		werr = analysis.WriteText(stdout, findings)
	case "json":
		werr = analysis.WriteJSON(stdout, findings)
	case "sarif":
		werr = analysis.WriteSARIF(stdout, findings, analyzers)
	}
	if werr != nil {
		fmt.Fprintf(stderr, "hetlint: %v\n", werr)
		return 2
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only subset by name. A name listed twice
// runs once.
func selectAnalyzers(all []*analysis.Analyzer, only string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out, nil
}

// relPath shortens file paths to base-relative form when that is cleaner.
func relPath(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
