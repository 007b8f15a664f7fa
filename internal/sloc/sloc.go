// Package sloc counts logical source lines of code (the SLOCCount
// methodology the paper cites: physical lines that are neither blank nor
// comment) and computes the paper's productivity metric,
//
//	productivity = (time_OMP / time_model) / (lines_model / lines_OMP)   (Eq. 1)
//
// Table IV's measured line counts for the five applications ship as the
// reference data set; the counter itself works on Go and C-family sources
// so the methodology is reproducible against this repository's own
// implementations.
package sloc

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// CountString counts logical SLOC in source text: lines that contain at
// least one token outside comments. Line comments (//) and block comments
// (/* */) are recognized; string literals are respected so a "//" inside
// a string does not start a comment.
func CountString(src string) int {
	count := 0
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		if countsAsCode(line, &inBlock) {
			count++
		}
	}
	return count
}

// countsAsCode scans one line, updating block-comment state, and reports
// whether any code token appears.
func countsAsCode(line string, inBlock *bool) bool {
	code := false
	i := 0
	inStr, inChar, inRaw := false, false, false
	for i < len(line) {
		c := line[i]
		switch {
		case *inBlock:
			if c == '*' && i+1 < len(line) && line[i+1] == '/' {
				*inBlock = false
				i++
			}
		case inRaw:
			code = true
			if c == '`' {
				inRaw = false
			}
		case inStr:
			code = true
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case inChar:
			code = true
			if c == '\\' {
				i++
			} else if c == '\'' {
				inChar = false
			}
		default:
			switch {
			case c == '/' && i+1 < len(line) && line[i+1] == '/':
				return code // rest of line is comment
			case c == '/' && i+1 < len(line) && line[i+1] == '*':
				*inBlock = true
				i++
			case c == '"':
				inStr = true
				code = true
			case c == '\'':
				inChar = true
				code = true
			case c == '`':
				inRaw = true
				code = true
			case c != ' ' && c != '\t' && c != '\r':
				code = true
			}
		}
		i++
	}
	return code
}

// CountFile counts logical SLOC in one file.
func CountFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("sloc: %w", err)
	}
	return CountString(string(data)), nil
}

// CountDir counts logical SLOC in all files under dir whose names match
// any of the extensions (e.g. ".go"). It returns the total and a per-file
// map of relative paths.
func CountDir(dir string, exts ...string) (int, map[string]int, error) {
	match := func(name string) bool {
		for _, e := range exts {
			if strings.HasSuffix(name, e) {
				return true
			}
		}
		return len(exts) == 0
	}
	total := 0
	perFile := map[string]int{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !match(info.Name()) {
			return nil
		}
		n, err := CountFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			rel = path
		}
		perFile[rel] = n
		total += n
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("sloc: %w", err)
	}
	return total, perFile, nil
}

// Table4 is the paper's measured "source lines of code changed starting
// from the CPU serial implementation" (Table IV).
type Table4Row struct {
	App                             string
	OpenMP, OpenCL, CppAMP, OpenACC int
}

// Table4 returns the paper's Table IV, in paper order.
func Table4() []Table4Row {
	return []Table4Row{
		{"read-benchmark", 3, 181, 42, 40},
		{"LULESH", 107, 1357, 1087, 1276},
		{"CoMD", 23, 3716, 188, 183},
		{"XSBench", 13, 1468, 83, 113},
		{"miniFE", 18, 2869, 260, 43},
	}
}

// Productivity computes Eq. 1: speedup over OpenMP divided by the
// relative line count. Returns 0 for degenerate inputs rather than
// propagating NaN into reports.
func Productivity(speedup float64, linesModel, linesOMP int) float64 {
	if speedup <= 0 || linesModel <= 0 || linesOMP <= 0 {
		return 0
	}
	relLines := float64(linesModel) / float64(linesOMP)
	return speedup / relLines
}

// HarmonicMean returns the harmonic mean of positive values (the paper's
// "Har. Mean" column in Figure 10); non-positive values make it 0.
func HarmonicMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += 1 / v
	}
	return float64(len(vals)) / sum
}
