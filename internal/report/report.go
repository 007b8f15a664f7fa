// Package report renders experiment results as aligned ASCII tables,
// figure grids of (x, y) series (the paper's figure format) and ASCII
// timelines, and reads and writes the BENCH_*.json snapshots.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row of formatted values: strings pass through,
// float64 render %.3g, ints %d.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.3g", v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		case int64:
			row = append(row, fmt.Sprintf("%d", v))
		case bool:
			if v {
				row = append(row, "yes")
			} else {
				row = append(row, "no")
			}
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return ""
	}
	return b.String()
}

// Series is one named line of (x, y) points — the paper's figure format
// (e.g. one memory-frequency series in Figure 7).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a set of series sharing an x-axis, rendered as a grid.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// WriteTo renders the figure as a table: one row per x, one column per
// series.
func (f *Figure) WriteTo(w io.Writer) (int64, error) {
	if len(f.Series) == 0 {
		n, err := fmt.Fprintf(w, "%s (no data)\n", f.Title)
		return int64(n), err
	}
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	t := NewTable(fmt.Sprintf("%s  [y: %s]", f.Title, f.YLabel), headers...)
	for i := range f.Series[0].X {
		row := []string{fmt.Sprintf("%g", f.Series[0].X[i])}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.3f", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t.WriteTo(w)
}

// String renders the figure.
func (f *Figure) String() string {
	var b strings.Builder
	if _, err := f.WriteTo(&b); err != nil {
		return ""
	}
	return b.String()
}
