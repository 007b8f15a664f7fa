package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Usage errors must exit non-zero with a one-line message on stderr.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"unknown experiment", []string{"-exp", "fig99", "-scale", "smoke"}, "unknown experiment"},
		{"bad scale", []string{"-exp", "table2", "-scale", "huge"}, "smoke|small|default|paper"},
		{"bad seed", []string{"-exp", "faults", "-scale", "smoke", "-seed", "0"}, "invalid -seed"},
		{"negative seed", []string{"-exp", "faults", "-scale", "smoke", "-seed", "-3"}, "invalid -seed"},
		{"negative jobs", []string{"-exp", "table2", "-scale", "smoke", "-jobs", "-2"}, "invalid -jobs"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional args", []string{"table2"}, "unexpected arguments"},
		{"list with trace", []string{"-list", "-trace", "out.json"}, "cannot be combined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d, want exit code 2", tc.args, code)
			}
			// The error itself is one line (flag parse errors append the
			// usage text below it).
			firstLine, _, _ := strings.Cut(stderr.String(), "\n")
			if !strings.Contains(firstLine, tc.want) {
				t.Fatalf("stderr first line %q does not mention %q", firstLine, tc.want)
			}
		})
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, stderr.String())
	}
	for _, id := range []string{"table1", "fig8", "faults", "coexec"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list output missing experiment %q", id)
		}
	}
}

// -exp list (an alias for -list) prints the experiment ids in sorted
// order, stably across invocations, and includes the coexec extension.
func TestRunExpListSortedAndStable(t *testing.T) {
	render := func() string {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-exp", "list"}, &stdout, &stderr); code != 0 {
			t.Fatalf("run(-exp list) = %d, stderr: %s", code, stderr.String())
		}
		return stdout.String()
	}
	a := render()
	if a != render() {
		t.Fatal("two -exp list invocations produced different output")
	}
	var ids []string
	for _, line := range strings.Split(a, "\n") {
		// Id lines start at column 0; description lines are indented.
		if line == "" || strings.HasPrefix(line, " ") {
			continue
		}
		ids = append(ids, strings.Fields(line)[0])
	}
	if len(ids) == 0 {
		t.Fatalf("-exp list printed no experiment ids:\n%s", a)
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("-exp list ids not sorted: %v", ids)
	}
	for _, want := range []string{"coexec", "fleet"} {
		found := false
		for _, id := range ids {
			found = found || id == want
		}
		if !found {
			t.Errorf("-exp list ids missing %s: %v", want, ids)
		}
	}
}

func TestRunExperimentSucceeds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "table2", "-scale", "smoke"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(table2) = %d, stderr: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("experiment produced no output")
	}
}

// The satellite CI check in code form: the same seed gives bit-identical
// fault-sweep output; a different seed diverges.
func TestRunFaultsSeedDeterminism(t *testing.T) {
	render := func(seed string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "faults", "-scale", "smoke", "-seed", seed}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	a, b := render("1"), render("1")
	if a != b {
		t.Fatal("two -seed 1 runs produced different output")
	}
	if render("2") == a {
		t.Fatal("-seed 2 reproduced -seed 1's output exactly")
	}
}

// The coexec determinism contract end to end: the partitioners draw no
// randomness, so two same-seed runs are bit-identical (CI diffs the same
// pair of invocations).
func TestRunCoexecSeedDeterminism(t *testing.T) {
	render := func() string {
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "coexec", "-scale", "smoke", "-seed", "1"}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	if render() != render() {
		t.Fatal("two -seed 1 coexec runs produced different output")
	}
}

// The fleet sweep's determinism contract: arrival traces, placement and
// fault streams all derive from -seed, so equal seeds give bit-identical
// output and different seeds diverge (CI diffs the same pair of runs).
func TestRunFleetSeedDeterminism(t *testing.T) {
	render := func(seed string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "fleet", "-scale", "smoke", "-seed", seed}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	a, b := render("1"), render("1")
	if a != b {
		t.Fatal("two -seed 1 fleet runs produced different output")
	}
	if render("3") == a {
		t.Fatal("-seed 3 reproduced -seed 1's output exactly")
	}
}

// -cpuprofile and -memprofile write non-empty pprof files and leave
// stdout byte-identical to a run without them.
func TestRunProfilesLeaveOutputUnchanged(t *testing.T) {
	args := []string{"-exp", "fig9", "-scale", "smoke", "-seed", "1"}
	var plain, stderr bytes.Buffer
	if code := run(context.Background(), args, &plain, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var profiled bytes.Buffer
	stderr.Reset()
	pargs := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, args...)
	if code := run(context.Background(), pargs, &profiled, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", pargs, code, stderr.String())
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Errorf("stdout differs with profiling on:\n--- without\n%s\n--- with\n%s", plain.String(), profiled.String())
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", path, err)
		}
	}
}

// An unwritable profile path is a runtime failure, reported before any
// experiment runs.
func TestRunProfileUnwritable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "table2", "-scale", "smoke", "-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.out")}
	if code := run(context.Background(), args, &stdout, &stderr); code != 1 {
		t.Fatalf("run(%v) = %d, want 1", args, code)
	}
	if !strings.Contains(stderr.String(), "cpuprofile") || stdout.Len() != 0 {
		t.Errorf("stdout %q, stderr %q: want only a cpuprofile error", stdout.String(), stderr.String())
	}
}
