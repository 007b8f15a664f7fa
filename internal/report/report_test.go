package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "App", "Speedup")
	tb.AddRowf("LULESH", 3.25)
	tb.AddRowf("CoMD", 12)
	s := tb.String()
	for _, want := range []string{"Demo", "App", "Speedup", "LULESH", "3.25", "CoMD", "12"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	// Alignment: header and separator rows have equal visible width.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines, want 5", len(lines))
	}
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("header/separator misaligned:\n%s", s)
	}
}

func TestAddRowfTypes(t *testing.T) {
	tb := NewTable("", "a", "b", "c", "d", "e")
	tb.AddRowf("x", 1.5, 7, int64(9), true)
	row := tb.Rows[0]
	want := []string{"x", "1.5", "7", "9", "yes"}
	for i := range want {
		if row[i] != want[i] {
			t.Errorf("cell %d = %q, want %q", i, row[i], want[i])
		}
	}
	tb.AddRowf(false, struct{}{})
	if tb.Rows[1][0] != "no" {
		t.Error("bool false not rendered")
	}
}

func TestShortRowsPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("row padded to %d cells, want 3", len(tb.Rows[0]))
	}
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{
		Title:  "Fig 7a",
		XLabel: "core MHz",
		YLabel: "normalized perf",
		Series: []*Series{
			{Name: "480", X: []float64{200, 400}, Y: []float64{1, 1.9}},
			{Name: "1250", X: []float64{200, 400}, Y: []float64{1, 2.5}},
		},
	}
	s := f.String()
	for _, want := range []string{"Fig 7a", "core MHz", "480", "1250", "1.900", "2.500"} {
		if !strings.Contains(s, want) {
			t.Errorf("figure output missing %q:\n%s", want, s)
		}
	}
	empty := &Figure{Title: "none"}
	if !strings.Contains(empty.String(), "no data") {
		t.Error("empty figure not handled")
	}
}
