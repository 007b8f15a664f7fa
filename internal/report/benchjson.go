package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// BenchSchema identifies the BENCH_*.json file format. Bump the suffix
// on breaking changes so PerfDelta can refuse to compare mismatched
// generations.
const BenchSchema = "hetbench-bench/v1"

// BenchEntry is one named measurement in a BENCH file: mean ns/op plus,
// when the producer measured them, allocations per op.
type BenchEntry struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is -1 when the producer did not measure allocations;
	// 0 is a meaningful measured value the CI gate relies on.
	AllocsPerOp float64 `json:"allocs_per_op"`
	Count       int64   `json:"count,omitempty"` // ops measured
}

// BenchFile is the machine-readable perf-trajectory snapshot committed
// at the repo root (BENCH_hotpath.json). Commit metadata comes from the
// producer's arguments (CI passes GITHUB_SHA), never from inside the
// library, so the schema stays host-agnostic.
type BenchFile struct {
	Schema  string       `json:"schema"`
	Suite   string       `json:"suite"` // "hotpath"
	Commit  string       `json:"commit,omitempty"`
	Date    string       `json:"date,omitempty"` // ISO 8601, producer-supplied
	Go      string       `json:"go,omitempty"`
	Entries []BenchEntry `json:"entries"`
}

// Sort orders the entries by name so the serialized file is stable
// regardless of production order.
func (f *BenchFile) Sort() {
	sort.Slice(f.Entries, func(i, j int) bool { return f.Entries[i].Name < f.Entries[j].Name })
}

// Entry returns the named entry, or nil.
func (f *BenchFile) Entry(name string) *BenchEntry {
	for i := range f.Entries {
		if f.Entries[i].Name == name {
			return &f.Entries[i]
		}
	}
	return nil
}

// WriteBench serializes the file as indented JSON (sorted entries,
// trailing newline) — the committed-artifact form.
func WriteBench(w io.Writer, f *BenchFile) error {
	if f.Schema == "" {
		f.Schema = BenchSchema
	}
	f.Sort()
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteBenchFile writes the snapshot to path via WriteBench.
func WriteBenchFile(path string, f *BenchFile) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBench(out, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ReadBench parses a BENCH file and validates its schema tag.
func ReadBench(r io.Reader) (*BenchFile, error) {
	var f BenchFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("bench: parse: %w", err)
	}
	if f.Schema != BenchSchema {
		return nil, fmt.Errorf("bench: schema %q, want %q", f.Schema, BenchSchema)
	}
	return &f, nil
}

// ReadBenchFile reads a BENCH snapshot from path.
func ReadBenchFile(path string) (*BenchFile, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	f, err := ReadBench(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// BenchDelta is one entry's old-vs-new comparison.
type BenchDelta struct {
	Name         string
	OldNs, NewNs float64
	// Ratio is NewNs/OldNs (1.0 = unchanged); 0 when either side is
	// missing or the old measurement was zero.
	Ratio                float64
	OldAllocs, NewAllocs float64
	OnlyOld, OnlyNew     bool
	TimeRegressed        bool
	AllocsRegressed      bool
}

// Regressed reports whether the delta trips either gate.
func (d BenchDelta) Regressed() bool { return d.TimeRegressed || d.AllocsRegressed }

// BenchDeltaReport is the comparison of two BENCH snapshots.
type BenchDeltaReport struct {
	Suite     string
	Threshold float64
	Deltas    []BenchDelta
}

// Regressions returns the names of entries that regressed.
func (r *BenchDeltaReport) Regressions() []string {
	var out []string
	for _, d := range r.Deltas {
		if d.Regressed() {
			out = append(out, d.Name)
		}
	}
	return out
}

// PerfDelta compares two BENCH snapshots entry by entry, sorted by
// name. threshold is the tolerated fractional ns/op growth (0.2 = 20%);
// threshold <= 0 disables the time gate (report-only mode for noisy
// wall-clock suites). Allocation counts are
// deterministic, so any allocs/op increase between measured entries is
// flagged regardless of threshold.
func PerfDelta(old, cur *BenchFile, threshold float64) *BenchDeltaReport {
	rep := &BenchDeltaReport{Suite: cur.Suite, Threshold: threshold}
	names := map[string]bool{}
	for _, e := range old.Entries {
		names[e.Name] = true
	}
	for _, e := range cur.Entries {
		names[e.Name] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		oe, ne := old.Entry(name), cur.Entry(name)
		d := BenchDelta{Name: name}
		switch {
		case oe == nil:
			d.OnlyNew = true
			d.NewNs, d.NewAllocs = ne.NsPerOp, ne.AllocsPerOp
		case ne == nil:
			d.OnlyOld = true
			d.OldNs, d.OldAllocs = oe.NsPerOp, oe.AllocsPerOp
		default:
			d.OldNs, d.NewNs = oe.NsPerOp, ne.NsPerOp
			d.OldAllocs, d.NewAllocs = oe.AllocsPerOp, ne.AllocsPerOp
			if d.OldNs > 0 {
				d.Ratio = d.NewNs / d.OldNs
				if threshold > 0 && d.Ratio > 1+threshold {
					d.TimeRegressed = true
				}
			}
			if d.OldAllocs >= 0 && d.NewAllocs > d.OldAllocs {
				d.AllocsRegressed = true
			}
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	return rep
}

// Table renders the report as an old-vs-new comparison table.
func (r *BenchDeltaReport) Table() *Table {
	title := fmt.Sprintf("Perf delta — suite %q", r.Suite)
	if r.Threshold > 0 {
		title += fmt.Sprintf(" (gate: +%.0f%% ns/op)", r.Threshold*100)
	} else {
		title += " (report-only)"
	}
	t := NewTable(title, "Benchmark", "Old ns/op", "New ns/op", "Delta", "Old allocs", "New allocs", "Verdict")
	allocs := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", v)
	}
	for _, d := range r.Deltas {
		switch {
		case d.OnlyNew:
			t.AddRow(d.Name, "-", fmt.Sprintf("%.1f", d.NewNs), "new", "-", allocs(d.NewAllocs), "new entry")
		case d.OnlyOld:
			t.AddRow(d.Name, fmt.Sprintf("%.1f", d.OldNs), "-", "gone", allocs(d.OldAllocs), "-", "removed")
		default:
			verdict := "ok"
			if d.TimeRegressed {
				verdict = "REGRESSED"
			}
			if d.AllocsRegressed {
				verdict = "ALLOCS REGRESSED"
				if d.TimeRegressed {
					verdict = "REGRESSED (time+allocs)"
				}
			}
			delta := "n/a"
			if d.Ratio > 0 {
				delta = fmt.Sprintf("%+.1f%%", (d.Ratio-1)*100)
			}
			t.AddRow(d.Name, fmt.Sprintf("%.1f", d.OldNs), fmt.Sprintf("%.1f", d.NewNs),
				delta, allocs(d.OldAllocs), allocs(d.NewAllocs), verdict)
		}
	}
	return t
}
