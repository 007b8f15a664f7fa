package workload

import (
	"reflect"
	"strings"
	"testing"

	"hetbench/internal/sched"
)

// validSpec is a minimal two-branch diamond used across the tests.
const validSpec = `{
  "name": "diamond",
  "buffers": [
    {"name": "in", "bytes": 1024},
    {"name": "a", "bytes": 1024},
    {"name": "b", "bytes": 1024},
    {"name": "out", "bytes": 1024}
  ],
  "kernels": [
    {"name": "left", "class": "streaming", "items": 256, "load_bytes": 4, "reads": ["in"], "writes": ["a"]},
    {"name": "right", "class": "streaming", "items": 256, "load_bytes": 4, "reads": ["in"], "writes": ["b"]},
    {"name": "join", "class": "regular", "items": 256, "load_bytes": 8, "reads": ["a", "b"], "writes": ["out"]}
  ]
}`

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Order, []int{0, 1, 2}) {
		t.Errorf("topo order = %v, want [0 1 2]", p.Order)
	}
	if !reflect.DeepEqual(p.Deps[2], []int{0, 1}) {
		t.Errorf("join deps = %v, want [0 1]", p.Deps[2])
	}
	if p.Edges != 2 {
		t.Errorf("edges = %d, want 2", p.Edges)
	}
}

func TestParseRejects(t *testing.T) {
	tests := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"unknown field", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":1,"wibble":3}]}`, "wibble"},
		{"trailing data", validSpec + `{"name":"again"}`, "trailing data"},
		{"truncated", validSpec[:len(validSpec)/2], "unexpected"},
		{"missing name", `{"kernels":[{"name":"k","class":"streaming","items":1}]}`, "missing name"},
		{"no kernels", `{"name":"x"}`, "no kernels"},
		{"dup kernel", `{"name":"x","kernels":[
			{"name":"k","class":"streaming","items":1},
			{"name":"k","class":"streaming","items":1}]}`, "duplicate kernel"},
		{"dup buffer", `{"name":"x","buffers":[{"name":"b","bytes":1},{"name":"b","bytes":1}],
			"kernels":[{"name":"k","class":"streaming","items":1}]}`, "duplicate buffer"},
		{"bad class", `{"name":"x","kernels":[{"name":"k","class":"weird","items":1}]}`, "unknown class"},
		{"bad device", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":1,"device":"fpga"}]}`, "unknown device"},
		{"zero items", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":0}]}`, "items"},
		{"bad buffer size", `{"name":"x","buffers":[{"name":"b","bytes":0}],
			"kernels":[{"name":"k","class":"streaming","items":1}]}`, "size"},
		{"unknown read", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":1,"reads":["ghost"]}]}`, "unknown buffer"},
		{"unknown write", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":1,"writes":["ghost"]}]}`, "unknown buffer"},
		{"unknown after", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":1,"after":["ghost"]}]}`, "unknown kernel"},
		{"self edge", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":1,"after":["k"]}]}`, "after itself"},
		{"cycle", `{"name":"x","kernels":[
			{"name":"a","class":"streaming","items":1,"after":["b"]},
			{"name":"b","class":"streaming","items":1,"after":["a"]}]}`, "cycle"},
		{"bad miss rate", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":1,"miss_rate":1.5}]}`, "miss_rate"},
		{"bad coalesce", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":1,"coalesce":2}]}`, "coalesce"},
		{"negative flops", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":1,"sp_flops":-1}]}`, "sp_flops"},
		{"huge items", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":9223372036854775807,"wavefront_hint":64}]}`, "items"},
		{"huge flops", `{"name":"x","kernels":[{"name":"k","class":"streaming","items":1,"dp_flops":1e308}]}`, "dp_flops"},
		{"negative iterations", `{"name":"x","iterations":-1,"kernels":[{"name":"k","class":"streaming","items":1}]}`, "iterations"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDataflowEdges checks the three hazard classes each derive an edge.
func TestDataflowEdges(t *testing.T) {
	spec := `{
	  "name": "hazards",
	  "buffers": [{"name": "x", "bytes": 64}],
	  "kernels": [
	    {"name": "w1", "class": "streaming", "items": 1, "writes": ["x"]},
	    {"name": "r1", "class": "streaming", "items": 1, "reads": ["x"]},
	    {"name": "w2", "class": "streaming", "items": 1, "writes": ["x"]}
	  ]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Deps[1], []int{0}) {
		t.Errorf("RAW: r1 deps = %v, want [0]", p.Deps[1])
	}
	// w2 carries both the WAW edge from w1 and the WAR edge from r1.
	if !reflect.DeepEqual(p.Deps[2], []int{0, 1}) {
		t.Errorf("WAW+WAR: w2 deps = %v, want [0 1]", p.Deps[2])
	}
}

// TestTopoOrderDeterministic re-compiles the same spec and demands the
// identical order, and checks Kahn drains the ready set in declaration
// order even when later kernels unblock earlier-declared ones.
func TestTopoOrderDeterministic(t *testing.T) {
	spec := `{
	  "name": "order",
	  "kernels": [
	    {"name": "z", "class": "streaming", "items": 1, "after": ["tail"]},
	    {"name": "head", "class": "streaming", "items": 1},
	    {"name": "tail", "class": "streaming", "items": 1, "after": ["head"]}
	  ]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Order, []int{1, 2, 0}) {
		t.Errorf("topo order = %v, want [1 2 0]", first.Order)
	}
	for i := 0; i < 10; i++ {
		again, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Order, first.Order) {
			t.Fatalf("compile %d gave order %v, first gave %v", i, again.Order, first.Order)
		}
	}
}

func TestPlacementAndHints(t *testing.T) {
	spec := `{
	  "name": "pins",
	  "kernels": [
	    {"name": "free", "class": "streaming", "items": 100, "wavefront_hint": 64},
	    {"name": "cpu", "class": "irregular", "items": 100, "device": "host"},
	    {"name": "gpu", "class": "regular", "items": 100, "device": "accel"}
	  ]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := []sched.Placement{sched.PlaceAny, sched.PlaceHost, sched.PlaceAccel}
	if !reflect.DeepEqual(p.Place, want) {
		t.Errorf("placements = %v, want %v", p.Place, want)
	}
	if got := p.launchItems(0); got != 128 {
		t.Errorf("hinted launch items = %d, want 128 (100 rounded up to 64)", got)
	}
	if got := p.launchItems(1); got != 100 {
		t.Errorf("unhinted launch items = %d, want 100", got)
	}
}

// TestDedupReads checks repeated buffer references collapse to one edge
// and one staging entry.
func TestDedupReads(t *testing.T) {
	spec := `{
	  "name": "dup",
	  "buffers": [{"name": "x", "bytes": 64}],
	  "kernels": [
	    {"name": "w", "class": "streaming", "items": 1, "writes": ["x", "x"]},
	    {"name": "r", "class": "streaming", "items": 1, "reads": ["x", "x", "x"]}
	  ]
	}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Reads[1]) != 1 || len(p.Writes[0]) != 1 {
		t.Errorf("dedup failed: reads %v writes %v", p.Reads[1], p.Writes[0])
	}
	if p.Edges != 1 {
		t.Errorf("edges = %d, want 1", p.Edges)
	}
}
