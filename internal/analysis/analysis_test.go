package analysis_test

import (
	"go/token"
	"path/filepath"
	"reflect"
	"testing"

	"hetbench/internal/analysis"
	"hetbench/internal/analysis/analysistest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

// TestAnalyzerFixtures runs each analyzer over its fixture package and
// asserts the exact `// want` diagnostics (position and message) plus
// the surviving-finding count, so a silently dead rule fails loudly. Each
// fixture loads twice: from compiler export data, then with go off PATH
// through the source importer. Both loads must fire every `// want` and
// report the same findings.
func TestAnalyzerFixtures(t *testing.T) {
	tests := []struct {
		fixture string
		run     []*analysis.Analyzer
		want    int
	}{
		{"detnondet", []*analysis.Analyzer{analysis.DetNonDet}, 6},
		{"service", []*analysis.Analyzer{analysis.CtxFlow}, 2},
		{"ctxflowfree", []*analysis.Analyzer{analysis.CtxFlow}, 0},
		{"seedflow", []*analysis.Analyzer{analysis.DetNonDet}, 11},
		{"wallclock", []*analysis.Analyzer{analysis.DetNonDet}, 10},
	}
	for _, tc := range tests {
		t.Run(tc.fixture, func(t *testing.T) {
			findings := analysistest.Run(t, fixture(tc.fixture), tc.run)
			if len(findings) != tc.want {
				t.Errorf("got %d findings, want %d:\n%v", len(findings), tc.want, findings)
			}
			analysistest.WithoutGo(t)
			if fromSource := analysistest.Run(t, fixture(tc.fixture), tc.run); !reflect.DeepEqual(fromSource, findings) {
				t.Errorf("findings differ between importers:\n--- export data\n%v\n--- source\n%v", findings, fromSource)
			}
		})
	}
}

// TestDirectiveDiagnostics is the negative test for the suppression
// grammar: unused, misspelled, verbless and reasonless //hetlint
// directives, and directives naming a deleted analyzer, are themselves
// reported, attributed to the "directive" pseudo-analyzer, while the one
// valid directive suppresses silently.
func TestDirectiveDiagnostics(t *testing.T) {
	findings := analysistest.Run(t, fixture("directives"), analysis.Analyzers())
	for _, f := range findings {
		if f.Analyzer != analysis.DirectiveName {
			t.Errorf("non-directive finding leaked through: %s", f)
		}
	}
	if len(findings) != 5 {
		t.Errorf("got %d directive findings, want 5:\n%v", len(findings), findings)
	}
	analysistest.MustContain(t, findings, `unused //hetlint:allow detnondet`)
	analysistest.MustContain(t, findings, `unknown analyzer "detnodnet"`)
	analysistest.MustContain(t, findings, `unknown analyzer "spanleak"`)
	analysistest.MustContain(t, findings, `//hetlint:allow ctxflow has no reason`)
	analysistest.MustContain(t, findings, `unknown hetlint directive "forbid"`)
}

// TestFindingString pins the one-line rendering CI greps for.
func TestFindingString(t *testing.T) {
	f := analysis.Finding{
		Pos:      token.Position{Filename: "internal/sim/machine.go", Line: 42},
		Analyzer: "detnondet",
		Message:  "time.Now reads the wall clock",
	}
	got := f.String()
	want := "internal/sim/machine.go:42: [detnondet] time.Now reads the wall clock"
	if got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestAnalyzersOrder pins the registry: two rules, fixed names.
func TestAnalyzersOrder(t *testing.T) {
	var names []string
	for _, a := range analysis.Analyzers() {
		names = append(names, a.Name)
	}
	want := []string{"detnondet", "ctxflow"}
	if len(names) != len(want) {
		t.Fatalf("Analyzers() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}
