package hetbench

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// num captures one decimal number as EXPERIMENTS.md quotes it.
const num = `(\d+(?:\.\d+)?)`

// tripleRE matches one application's OpenCL / C++ AMP / OpenACC speedup
// triple as EXPERIMENTS.md quotes it: double precision unless marked SP,
// optionally followed by the single-precision triple in parentheses.
var tripleRE = regexp.MustCompile(`(read-bench|LULESH|CoMD|XSBench|miniFE)( SP)? ` +
	num + ` / ` + num + ` / ` + num + `(?: \(SP: ` + num + ` / ` + num + ` / ` + num + `\))?`)

// cellSepRE splits a results_default.txt table row into its cells.
var cellSepRE = regexp.MustCompile(`\s{2,}`)

// dataregionRE matches the dataregion ablation's headline sentence.
var dataregionRE = regexp.MustCompile(num + `× more PCIe traffic \(` + num + ` GB vs ` + num + ` MB\) and ` + num + `× the runtime`)

// table1RE matches one Table I row's measured column: miss %, IPC, kernel
// count and boundedness.
var table1RE = regexp.MustCompile(`(?m)^\| (LULESH|CoMD|XSBench|miniFE) +\|[^|]*\| ` +
	`(\d+)% / ` + num + ` / (?:\*\*)?(\d+)(?:\*\*)? / (?:\*\*)?(\w+)(?:\*\*)? \|`)

// hcRE matches the hc ablation's XSBench sentence: the four models'
// elapsed times and HC's unhidden transfer time.
var hcRE = regexp.MustCompile(`OpenCL ` + num + ` ms, C\+\+ AMP ` + num + ` ms, OpenACC ` + num +
	` ms, HC ` + num + ` ms .* only ` + num + ` ms of transfer time is left unhidden`)

// tilesRE matches the tiles ablation's default-scale speedup.
var tilesRE = regexp.MustCompile(`staging: ` + num + `× at the default scale`)

// TestPublishedNumbersMatchResults pins the default-scale numbers that
// EXPERIMENTS.md quotes to results_default.txt, which CI regenerates
// byte for byte: every Figure 8/9 speedup triple, Table I's measured
// column, the hc ablation's XSBench times, the tiles speedup and the
// dataregion ablation's traffic and runtime penalties must read, rounded
// to the precision quoted, as the committed output does.
func TestPublishedNumbersMatchResults(t *testing.T) {
	doc := readText(t, "EXPERIMENTS.md")
	results := readText(t, "results_default.txt")

	for _, fig := range []struct{ exp, lead string }{
		{"fig8", "APU (Fig 8, measured):"},
		{"fig9", "dGPU (Fig 9, measured):"},
	} {
		rows := speedupRows(t, section(t, results, fig.exp))
		matches := tripleRE.FindAllStringSubmatch(paragraph(t, doc, fig.lead), -1)
		if len(matches) != 5 {
			t.Fatalf("%s: found %d of the 5 applications' triples in EXPERIMENTS.md", fig.exp, len(matches))
		}
		for _, m := range matches {
			app := m[1]
			if app == "read-bench" {
				app = "read-benchmark"
			}
			got, ok := rows[app]
			if !ok {
				t.Errorf("%s: no %s rows in results_default.txt", fig.exp, app)
				continue
			}
			col := 1 // DP speedup
			if m[2] != "" {
				col = 0
			}
			for i := 0; i < 3; i++ {
				expectQuoted(t, fig.exp+" "+app, m[3+i], got[i][col], 1)
				if m[6] != "" {
					expectQuoted(t, fig.exp+" "+app+" SP", m[6+i], got[i][0], 1)
				}
			}
		}
	}

	m := dataregionRE.FindStringSubmatch(paragraph(t, doc, "miniFE under OpenACC"))
	if m == nil {
		t.Fatal("dataregion: no traffic/runtime sentence in EXPERIMENTS.md")
	}
	table := map[string][]string{}
	for _, f := range tableRows(section(t, results, "dataregion")) {
		table[f[0]] = f[1:]
	}
	penalty, copies, region := table["penalty"], table["per-region copies"], table["with data region"]
	if len(penalty) != 2 || len(copies) != 2 || len(region) != 2 {
		t.Fatalf("dataregion: unexpected table in results_default.txt: %v", table)
	}
	expectQuoted(t, "dataregion traffic penalty", m[1], strings.TrimSuffix(penalty[1], "x"), 1)
	expectQuoted(t, "dataregion per-region traffic (GB)", m[2], copies[1], 1000)
	expectQuoted(t, "dataregion data-region traffic (MB)", m[3], region[1], 1)
	expectQuoted(t, "dataregion runtime penalty", m[4], strings.TrimSuffix(penalty[0], "x"), 1)

	table1 := map[string][]string{}
	for _, f := range tableRows(section(t, results, "table1")) {
		table1[f[0]] = f[1:]
	}
	rows := table1RE.FindAllStringSubmatch(doc, -1)
	if len(rows) != 4 {
		t.Fatalf("table1: found %d of the 4 applications' measured columns in EXPERIMENTS.md", len(rows))
	}
	for _, q := range rows {
		got := table1[q[1]]
		if len(got) < 4 {
			t.Errorf("table1: no %s row in results_default.txt", q[1])
			continue
		}
		expectQuoted(t, "table1 "+q[1]+" miss %", q[2], strings.TrimSuffix(got[0], "%"), 1)
		expectQuoted(t, "table1 "+q[1]+" IPC", q[3], got[1], 1)
		expectQuoted(t, "table1 "+q[1]+" kernels", q[4], got[2], 1)
		if q[5] != got[3] {
			t.Errorf("table1 %s boundedness: EXPERIMENTS.md quotes %s, results_default.txt has %s", q[1], q[5], got[3])
		}
	}

	m = hcRE.FindStringSubmatch(paragraph(t, doc, "XSBench on the dGPU:"))
	if m == nil {
		t.Fatal("hc: no XSBench sentence in EXPERIMENTS.md")
	}
	xs := map[string][]string{}
	for _, f := range tableRows(section(t, results, "hc")) {
		if f[0] == "XSBench" && len(f) == 5 {
			xs[f[1]] = f[2:]
		}
	}
	for i, model := range []string{"OpenCL", "C++ AMP", "OpenACC", "HC"} {
		if len(xs[model]) != 3 {
			t.Fatalf("hc: no XSBench %s row in results_default.txt", model)
		}
		expectQuoted(t, "hc XSBench "+model+" elapsed ms", m[1+i], xs[model][0], 1)
	}
	expectQuoted(t, "hc XSBench HC unhidden transfer ms", m[5], xs["HC"][2], 1)

	m = tilesRE.FindStringSubmatch(paragraph(t, doc, "CoMD force kernel, flat gather"))
	if m == nil {
		t.Fatal("tiles: no default-scale speedup sentence in EXPERIMENTS.md")
	}
	var tiled []string
	for _, f := range tableRows(section(t, results, "tiles")) {
		if strings.HasPrefix(f[0], "tiled") {
			tiled = f
		}
	}
	if len(tiled) != 3 {
		t.Fatalf("tiles: no tiled row in results_default.txt")
	}
	expectQuoted(t, "tiles speedup", m[1], tiled[2], 1)
}

func readText(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// paragraph returns the blank-line-delimited paragraph of doc that starts
// with lead, on one line, with markdown bold markers removed.
func paragraph(t *testing.T, doc, lead string) string {
	t.Helper()
	i := strings.Index(doc, lead)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no paragraph starting %q", lead)
	}
	para, _, _ := strings.Cut(doc[i:], "\n\n")
	return strings.Join(strings.Fields(strings.ReplaceAll(para, "**", "")), " ")
}

// section returns one experiment's block of results_default.txt.
func section(t *testing.T, results, exp string) string {
	t.Helper()
	_, rest, ok := strings.Cut(results, "=== "+exp+" — ")
	if !ok {
		t.Fatalf("results_default.txt has no %s section", exp)
	}
	block, _, _ := strings.Cut(rest, "\n=== ")
	return block
}

// tableRows splits the rows under a table's dashed rule into cells.
func tableRows(block string) [][]string {
	_, body, _ := strings.Cut(block, "--\n")
	var rows [][]string
	for _, line := range strings.Split(body, "\n") {
		if line = strings.TrimSpace(line); line == "" {
			break
		}
		rows = append(rows, cellSepRE.Split(line, -1))
	}
	return rows
}

// speedupRows maps each application to its OpenCL, C++ AMP and OpenACC
// rows' {SP, DP} speedups, in table order.
func speedupRows(t *testing.T, block string) map[string][][2]string {
	t.Helper()
	rows := map[string][][2]string{}
	for _, f := range tableRows(block) {
		if len(f) < 4 {
			t.Fatalf("malformed speedup row %q", f)
		}
		rows[f[0]] = append(rows[f[0]], [2]string{f[2], f[3]})
	}
	return rows
}

// expectQuoted checks that result, divided by scale and rounded to as
// many decimals as quoted has, reads as quoted.
func expectQuoted(t *testing.T, what, quoted, result string, scale float64) {
	t.Helper()
	v, err := strconv.ParseFloat(result, 64)
	if err != nil {
		t.Errorf("%s: results_default.txt value %q: %v", what, result, err)
		return
	}
	decimals := 0
	if _, frac, ok := strings.Cut(quoted, "."); ok {
		decimals = len(frac)
	}
	if got := strconv.FormatFloat(v/scale, 'f', decimals, 64); got != quoted {
		t.Errorf("%s: EXPERIMENTS.md quotes %s, results_default.txt has %s (%s)", what, quoted, result, got)
	}
}
