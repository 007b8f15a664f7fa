// Package analysistest is the shared expectation-driven harness for
// hetlint's analyzers: it loads a fixture package from testdata, runs a
// set of analyzers over it, and diffs the findings against `// want`
// comments in the fixture source.
//
// Expectation grammar, modeled on golang.org/x/tools' analysistest:
//
//	code() // want "regexp" `second regexp`
//
// Each quoted pattern must match one finding on that line, rendered as
// "[analyzer] message"; every finding must be matched by a pattern and
// every pattern by a finding. A `// want+` comment attaches its patterns
// to the following line instead — for findings reported on lines that
// are themselves comments (e.g. a bad //hetlint:allow directive). A
// `// want` marker may also trail another comment on the same line.
package analysistest

import (
	"fmt"
	"go/build"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hetbench/internal/analysis"
)

// wantRE captures the expectation marker and its pattern list.
var wantRE = regexp.MustCompile(`// want(\+)? (.*)$`)

// patternRE captures one double-quoted or backquoted pattern.
var patternRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// WithoutGo takes the go command off PATH for the rest of the test, so a
// Loader cannot list export data and falls back to the source importer.
// It also turns cgo off, as in a process started with CGO_ENABLED=0: with
// nothing on PATH there is no C compiler either, and the source importer
// would run cgo over net's C files. go/build reads CGO_ENABLED once at
// start-up, so the switch is made on build.Default and undone at cleanup.
func WithoutGo(t *testing.T) {
	t.Helper()
	t.Setenv("PATH", t.TempDir())
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
}

// expectation is one `// want` pattern anchored to a fixture line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the fixture package in dir, runs the analyzers, and reports
// any mismatch between findings and `// want` expectations through t.
// It returns the findings for additional assertions.
func Run(t *testing.T, dir string, analyzers []*analysis.Analyzer) []analysis.Finding {
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader(%s): %v", dir, err)
	}
	pkgs, err := loader.Load(dir, []string{"."})
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	expects := parseExpectations(t, pkgs)
	findings := analysis.RunAnalyzers(pkgs, analyzers)

	for _, f := range findings {
		rendered := fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)
		if !claim(expects, f.Pos.Filename, f.Pos.Line, rendered) {
			t.Errorf("%s:%d: unexpected finding: %s", f.Pos.Filename, f.Pos.Line, rendered)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: no finding matched `// want %s`", e.file, e.line, e.pattern)
		}
	}
	return findings
}

// claim marks the first unmatched expectation on (file, line) whose
// pattern matches rendered.
func claim(expects []*expectation, file string, line int, rendered string) bool {
	for _, e := range expects {
		if !e.matched && e.file == file && e.line == line && e.pattern.MatchString(rendered) {
			e.matched = true
			return true
		}
	}
	return false
}

// parseExpectations walks every fixture comment for want markers.
func parseExpectations(t *testing.T, pkgs []*analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					line := pos.Line
					if m[1] == "+" {
						line++
					}
					for _, pm := range patternRE.FindAllStringSubmatch(m[2], -1) {
						text := pm[2]
						if pm[1] != "" || text == "" {
							unq, err := strconv.Unquote(`"` + pm[1] + `"`)
							if err != nil {
								t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, line, pm[1], err)
							}
							text = unq
						}
						re, err := regexp.Compile(text)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, line, text, err)
						}
						out = append(out, &expectation{file: pos.Filename, line: line, pattern: re})
					}
				}
			}
		}
	}
	return out
}

// MustContain asserts that some finding's rendered form matches pattern —
// for driver-level tests that assert a finding class without pinning its
// fixture position.
func MustContain(t *testing.T, findings []analysis.Finding, pattern string) {
	t.Helper()
	re := regexp.MustCompile(pattern)
	for _, f := range findings {
		if re.MatchString(fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)) {
			return
		}
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	t.Errorf("no finding matched %q; findings:\n%s", pattern, strings.Join(got, "\n"))
}
