package sloc

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestCountString(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"empty", "", 0},
		{"blank lines", "\n\n  \n\t\n", 0},
		{"simple", "a := 1\nb := 2\n", 2},
		{"line comment only", "// hello\n// world\n", 0},
		{"trailing comment", "x := 1 // set x\n", 1},
		{"block comment", "/* a\nb\nc */\nx := 1\n", 1},
		{"block with code before", "x := 1 /* comment", 1},
		{"block with code after", "/* c */ x := 1", 1},
		{"comment chars in string", `s := "// not a comment"`, 1},
		{"comment chars in raw string", "s := `/* nope */`", 1},
		{"char literal", `c := '"'` + "\nd := 2", 2},
		{"multiline block then code", "/*\nlots\nof\ncomment\n*/\ncode()\n", 1},
		{"escaped quote", `s := "a\"// still string"` + "\ny := 1", 2},
	}
	for _, c := range cases {
		if got := CountString(c.src); got != c.want {
			t.Errorf("%s: CountString = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCountFileAndDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", "package a\n\n// doc\nfunc A() {}\n")
	write("b.go", "package a\nvar X = 1\n")
	write("c.txt", "not counted\n")

	n, err := CountFile(filepath.Join(dir, "a.go"))
	if err != nil || n != 2 {
		t.Errorf("CountFile = %d, %v; want 2, nil", n, err)
	}
	total, perFile, err := CountDir(dir, ".go")
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 {
		t.Errorf("CountDir total = %d, want 4", total)
	}
	if len(perFile) != 2 {
		t.Errorf("CountDir files = %d, want 2", len(perFile))
	}
	if _, err := CountFile(filepath.Join(dir, "missing.go")); err == nil {
		t.Error("missing file did not error")
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	rows := Table4()
	if len(rows) != 5 {
		t.Fatalf("Table IV has %d rows, want 5", len(rows))
	}
	// Spot checks from the paper.
	if rows[0].App != "read-benchmark" || rows[0].OpenCL != 181 || rows[0].OpenMP != 3 {
		t.Errorf("read-benchmark row wrong: %+v", rows[0])
	}
	if rows[2].App != "CoMD" || rows[2].OpenCL != 3716 || rows[2].OpenACC != 183 {
		t.Errorf("CoMD row wrong: %+v", rows[2])
	}
	// "OpenCL requires 4× more lines than both C++ AMP and OpenACC" for
	// read-benchmark.
	if r := float64(rows[0].OpenCL) / float64(rows[0].CppAMP); r < 4 {
		t.Errorf("read-benchmark OpenCL/AMP lines = %.1f, want >4", r)
	}
	// "C++ AMP came a close second by requiring 15% more changes on an
	// average than OpenACC" — check the geometric sense loosely: total
	// AMP lines within 2× of ACC.
	ampTotal, accTotal := 0, 0
	for _, r := range rows {
		ampTotal += r.CppAMP
		accTotal += r.OpenACC
	}
	if ampTotal > 2*accTotal {
		t.Errorf("AMP total %d vs ACC total %d: not close", ampTotal, accTotal)
	}
}

func TestProductivity(t *testing.T) {
	// Same speedup, fewer lines → higher productivity.
	pFew := Productivity(10, 40, 3)
	pMany := Productivity(10, 181, 3)
	if pFew <= pMany {
		t.Errorf("fewer lines not more productive: %g <= %g", pFew, pMany)
	}
	// Eq. 1 by hand: speedup 10, relative lines 181/3.
	want := 10.0 / (181.0 / 3.0)
	if math.Abs(pMany-want) > 1e-12 {
		t.Errorf("productivity = %g, want %g", pMany, want)
	}
	// Degenerate inputs are 0, not NaN.
	for _, p := range []float64{
		Productivity(0, 40, 3),
		Productivity(-1, 40, 3),
		Productivity(10, 0, 3),
		Productivity(10, 40, 0),
	} {
		if p != 0 || math.IsNaN(p) {
			t.Errorf("degenerate productivity = %g, want 0", p)
		}
	}
}

func TestQuickProductivityScaleInvariance(t *testing.T) {
	// Scaling both line counts by the same factor leaves productivity
	// fixed.
	f := func(a, b uint16, k uint8) bool {
		lM, lOMP := int(a)+1, int(b)+1
		scale := int(k) + 1
		p1 := Productivity(2.5, lM, lOMP)
		p2 := Productivity(2.5, lM*scale, lOMP*scale)
		return math.Abs(p1-p2) < 1e-9*p1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("HM(1,1,1) = %g", got)
	}
	if got := HarmonicMean([]float64{2, 6, 6}); math.Abs(got-3.6) > 1e-12 {
		t.Errorf("HM(2,6,6) = %g, want 3.6", got)
	}
	if HarmonicMean(nil) != 0 {
		t.Error("HM(nil) != 0")
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Error("HM with zero != 0")
	}
	// HM ≤ arithmetic mean.
	f := func(a, b, c uint8) bool {
		v := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		am := (v[0] + v[1] + v[2]) / 3
		return HarmonicMean(v) <= am+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The counter applied to this repository's own implementations: the
// OpenCL app code (explicit staging) must be bulkier than the OpenACC
// directive-style code for the same benchmark, mirroring Table IV's
// direction — checked on the readmem implementation file, whose per-model
// functions live in one file; here we simply require the counter to run
// over the repo without error and produce nonzero counts.
func TestCountRepoSources(t *testing.T) {
	total, files, err := CountDir("../apps/readmem", ".go")
	if err != nil {
		t.Fatalf("counting repo sources: %v", err)
	}
	if total < 100 || len(files) < 2 {
		t.Errorf("repo count = %d lines in %d files; want substantial", total, len(files))
	}
}
