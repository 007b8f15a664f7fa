package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hetbench/internal/analysis/analysistest"
)

// TestRepoIsClean is the acceptance gate in test form: hetlint over the
// whole module must exit 0 with no output. Any new violation of the
// determinism, span, fault or counter invariants fails this test before
// it ever reaches CI's dedicated hetlint step.
func TestRepoIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(&out, &errb, []string{"../../..."}); code != 0 {
		t.Fatalf("hetlint on the module exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}

// TestSourceFallbackMatchesExportData runs hetlint -format json over the
// module twice: once reading the standard library from compiler export
// data, once with go off PATH so the loader type-checks it from source.
// The two outputs must be byte-identical.
func TestSourceFallbackMatchesExportData(t *testing.T) {
	args := []string{"-format", "json", "../../..."}
	var exported, errb bytes.Buffer
	if code := run(&exported, &errb, args); code != 0 {
		t.Fatalf("export-data run exited %d\nstderr:\n%s", code, errb.String())
	}
	analysistest.WithoutGo(t)
	var fromSource bytes.Buffer
	errb.Reset()
	if code := run(&fromSource, &errb, args); code != 0 {
		t.Fatalf("source run exited %d\nstderr:\n%s", code, errb.String())
	}
	if !bytes.Equal(exported.Bytes(), fromSource.Bytes()) {
		t.Errorf("json differs between importers:\n--- export data\n%s\n--- source\n%s", exported.String(), fromSource.String())
	}
}

// TestFindingOutputFormat runs hetlint over a fixture that must produce
// findings and pins the "file:line: [analyzer] message" line format and
// the exit status 1 contract CI relies on.
func TestFindingOutputFormat(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(&out, &errb, []string{"-only", "counterkey", "../../internal/analysis/testdata/src/counterkey"})
	if code != 1 {
		t.Fatalf("expected exit 1 on findings, got %d\nstderr:\n%s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 findings, got %d:\n%s", len(lines), out.String())
	}
	lineRE := regexp.MustCompile(`^.+\.go:\d+: \[counterkey\] .+$`)
	for _, l := range lines {
		if !lineRE.MatchString(l) {
			t.Errorf("malformed finding line: %q", l)
		}
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(&out, &errb, []string{"-list"}); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	want := []string{"detnondet", "counterkey", "ctxflow"}
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, name := range want {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != name {
			t.Errorf("-list line %d = %q, want analyzer %s", i, lines[i], name)
		}
	}
}

// TestUnknownAnalyzerIsUsageError also covers the names of analyzers
// that are no longer registered: wallclock was folded into detnondet, and
// launchcheck was deleted because the resilience tests catch what it
// checked.
func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	for _, name := range []string{"nosuch", "wallclock", "launchcheck"} {
		var out, errb bytes.Buffer
		if code := run(&out, &errb, []string{"-only", name, "../../..."}); code != 2 {
			t.Fatalf("-only %s: expected exit 2 for unknown analyzer, got %d", name, code)
		}
		if !strings.Contains(errb.String(), "unknown analyzer") {
			t.Errorf("-only %s: stderr missing diagnostic: %q", name, errb.String())
		}
	}
}

// TestOnlyRepeatedNameRunsOnce pins that naming an analyzer twice in
// -only runs it once, so no finding prints twice.
func TestOnlyRepeatedNameRunsOnce(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(&out, &errb, []string{"-only", "counterkey,counterkey", "../../internal/analysis/testdata/src/counterkey"})
	if code != 1 {
		t.Fatalf("expected exit 1 on findings, got %d\nstderr:\n%s", code, errb.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 6 {
		t.Errorf("expected the 6 counterkey findings once each, got %d lines:\n%s", n, out.String())
	}
}

func TestUnknownFormatIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(&out, &errb, []string{"-format", "xml", "../../..."}); code != 2 {
		t.Fatalf("expected exit 2 for unknown format, got %d", code)
	}
	if !strings.Contains(errb.String(), "unknown format") {
		t.Errorf("stderr missing diagnostic: %q", errb.String())
	}
}

// TestJSONFormat pins the -format json element shape over a fixture with
// known findings.
func TestJSONFormat(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(&out, &errb, []string{"-only", "counterkey", "-format", "json", "../../internal/analysis/testdata/src/counterkey"})
	if code != 1 {
		t.Fatalf("expected exit 1 on findings, got %d\nstderr:\n%s", code, errb.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Severity string `json:"severity"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-format json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(findings) != 6 {
		t.Fatalf("expected 6 findings, got %d", len(findings))
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer != "counterkey" ||
			f.Severity != "error" || f.Message == "" {
			t.Errorf("malformed json finding: %+v", f)
		}
	}
}

// TestSARIFFormat validates the -format sarif document: SARIF 2.1.0, one
// run, a rule per analyzer, results with module-root-relative slash
// paths — the contract the CI code-scanning upload relies on.
func TestSARIFFormat(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(&out, &errb, []string{"-only", "counterkey", "-format", "sarif", "../../internal/analysis/testdata/src/counterkey"})
	if code != 1 {
		t.Fatalf("expected exit 1 on findings, got %d\nstderr:\n%s", code, errb.String())
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("-format sarif output is not valid JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("not a SARIF 2.1.0 log: version=%q schema=%q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("expected 1 run, got %d", len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "hetlint" {
		t.Errorf("driver name = %q, want hetlint", run0.Tool.Driver.Name)
	}
	// -only counterkey: one analyzer rule plus the directive pseudo-rule.
	if len(run0.Tool.Driver.Rules) != 2 {
		t.Errorf("expected 2 rules, got %d", len(run0.Tool.Driver.Rules))
	}
	if len(run0.Results) != 6 {
		t.Fatalf("expected 6 results, got %d", len(run0.Results))
	}
	for _, r := range run0.Results {
		if r.RuleID != "counterkey" || r.Level != "error" || r.Message.Text == "" {
			t.Errorf("malformed result: %+v", r)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("expected 1 location, got %d", len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		uri := loc.ArtifactLocation.URI
		if !strings.HasPrefix(uri, "internal/analysis/testdata/src/counterkey/") {
			t.Errorf("artifact URI %q is not module-root-relative", uri)
		}
		if strings.Contains(uri, "\\") {
			t.Errorf("artifact URI %q is not slash-separated", uri)
		}
		if loc.Region.StartLine == 0 {
			t.Errorf("result missing startLine: %+v", r)
		}
	}
}

// TestFindingsDeterministicAcrossJobs is the parallel driver's contract
// test: the rendered finding list over the full fixture tree (every
// analyzer, plus directive diagnostics) must be byte-identical at one
// worker and at eight, and again at eight with the standard library
// type-checked from source instead of read from export data. Run under
// -race in CI, this also shakes out data races in the worker pool.
func TestFindingsDeterministicAcrossJobs(t *testing.T) {
	outputs := make([]string, 0, 3)
	for i, jobs := range []string{"1", "8", "8"} {
		if i == 2 {
			analysistest.WithoutGo(t)
		}
		var out, errb bytes.Buffer
		code := run(&out, &errb, []string{"-jobs", jobs, "../../internal/analysis/testdata/src/..."})
		if code != 1 {
			t.Fatalf("expected exit 1 over the fixture tree at -jobs %s, got %d\nstderr:\n%s", jobs, code, errb.String())
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] {
		t.Errorf("findings differ between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", outputs[0], outputs[1])
	}
	if outputs[1] != outputs[2] {
		t.Errorf("findings differ between importers:\n--- export data\n%s\n--- source\n%s", outputs[1], outputs[2])
	}
	if strings.Count(outputs[0], "\n") == 0 {
		t.Error("fixture tree produced no findings; determinism test is vacuous")
	}
}

// -cpuprofile and -memprofile write non-empty pprof files and leave the
// findings byte-identical to a run without them.
func TestProfilesLeaveFindingsUnchanged(t *testing.T) {
	args := []string{"-only", "counterkey", "../../internal/analysis/testdata/src/counterkey"}
	var plain, errb bytes.Buffer
	if code := run(&plain, &errb, args); code != 1 {
		t.Fatalf("exit %d, want 1 (fixture has findings); stderr: %s", code, errb.String())
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var profiled bytes.Buffer
	errb.Reset()
	if code := run(&profiled, &errb, append([]string{"-cpuprofile", cpu, "-memprofile", mem}, args...)); code != 1 {
		t.Fatalf("profiled exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Errorf("findings differ with profiling on:\n--- without\n%s\n--- with\n%s", plain.String(), profiled.String())
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", path, err)
		}
	}
}
