package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"hetbench/internal/service"
)

func TestScriptIsDeterministic(t *testing.T) {
	a, b, c := newScript(7), newScript(7), newScript(8)
	differs := false
	for i := 0; i < 5*blockSteps; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("step %d differs between two scripts of seed 7: %+v vs %+v", i, a.at(i), b.at(i))
		}
		if a.at(i) != c.at(i) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 generated the same script")
	}
	// Generating out of order must not change the sequence.
	d := newScript(7)
	last := d.at(5*blockSteps - 1)
	if last != a.at(5*blockSteps-1) {
		t.Errorf("generating step %d first changed it", 5*blockSteps-1)
	}
}

func TestScriptProportions(t *testing.T) {
	const blocks = 20
	s := newScript(3)
	warmSeed := s.warm[0].Seed
	seeds := map[int64]bool{}
	var pairs int
	var hits, misses [2]int
	hitKeys := [2]map[string]int{{}, {}}
	for i := 0; i < blocks*blockSteps; i++ {
		st := s.at(i)
		if st[0].Kind == kindPair || st[1].Kind == kindPair {
			if st[0] != st[1] {
				t.Fatalf("pair step %d sends different requests: %+v", i, st)
			}
			pairs++
		}
		for c, r := range st {
			switch r.Kind {
			case kindHit:
				hits[c]++
				hitKeys[c][r.Req.Experiment]++
				if r.Req.Seed != warmSeed || r.Req.Scale != warmScale {
					t.Fatalf("hit %+v is not in the warm set", r.Req)
				}
				continue
			case kindMiss, kindPair:
				misses[c]++
			}
			if r.Req.Seed == warmSeed || r.Req.Experiment != missExp {
				t.Fatalf("miss %+v does not use a fresh seed for %s", r.Req, missExp)
			}
			if seeds[r.Req.Seed] && !(r.Kind == kindPair && c == 1) {
				t.Fatalf("fresh seed %d used twice", r.Req.Seed)
			}
			seeds[r.Req.Seed] = true
		}
	}
	inWarm := false
	for _, exp := range warmExps {
		inWarm = inWarm || exp == missExp
	}
	if !inWarm {
		t.Errorf("miss experiment %s is not in the warm set, so misses have no cold output to match", missExp)
	}
	if pairs != blocks {
		t.Errorf("%d pair steps in %d blocks, want one per block", pairs, blocks)
	}
	for c := 0; c < 2; c++ {
		n := hits[c] + misses[c]
		if share := float64(misses[c]) / float64(n); share != 0.05 {
			t.Errorf("client %d: miss share %.4f, want exactly 0.05", c, share)
		}
		// Hits walk the warm set in rounds, so no key is more than one
		// request ahead of another.
		lo, hi := n, 0
		for _, exp := range warmExps {
			lo, hi = min(lo, hitKeys[c][exp]), max(hi, hitKeys[c][exp])
		}
		if hi-lo > 1 {
			t.Errorf("client %d: warm keys hit between %d and %d times", c, lo, hi)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %g, want 5", got)
	}
	if got := quantile(xs, 0.2); got != 1 {
		t.Errorf("p20 = %g, want 1", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDefinitions(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric %q defined twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	setup := endToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", setup)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > setup.Bound {
			t.Errorf("%s: bound %g above setup_s's %g", m.Name, m.Bound, setup.Bound)
		}
	}
}

func TestLayerMappingsNameDefinedMetrics(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	wls := map[string]bool{}
	for _, w := range workloads {
		wls[w.Name] = true
	}
	for _, m := range perLayer {
		if m.Layer == "" {
			t.Errorf("%s names no layer", m.Name)
		}
		if !e2e[m.Target] {
			t.Errorf("%s targets %q, not an end-to-end metric", m.Name, m.Target)
		}
		if !wls[m.Workload] {
			t.Errorf("%s targets workload %q, not a workload", m.Name, m.Workload)
		}
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the definitions here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(raw); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "_perfbench/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"_perfbench"}) {
		t.Errorf("command %q, paths %q", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := f.Workloads[i]
		if got.Name != w.Name || got.Why != w.Why || len(got.Why) > 200 || strings.Contains(got.Why, "\n") {
			t.Errorf("workload %d: %+v, want %+v (why of one line, at most 200 characters)", i, got, w)
		}
	}
	check := func(kind string, got []entry, defs []metric, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d defined", kind, len(got), len(defs))
		}
		for i, m := range defs {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "apps", Start: 10, End: 40},
		{ID: 3, Parent: 2, Layer: "sim", Start: 15, End: 25},
		{ID: 4, Parent: 1, Layer: "apps", Start: 50, End: 60},
	}
	if got, want := selfTimes(spans), []float64{60, 20, 10, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	by := layerSelfTimes(spans)
	if by["apps"] != 30 || by["bench"] != 60 || by["sim"] != 10 {
		t.Errorf("layerSelfTimes = %v", by)
	}
	r := newSpanRecorder()
	r.do("a", "outer", func() { r.do("b", "inner", func() {}) })
	if len(r.spans) != 2 || r.spans[1].Parent != r.spans[0].ID || r.spans[0].Parent != 0 {
		t.Errorf("recorder nesting: %+v", r.spans)
	}
}

func TestExpSeedIsPositive(t *testing.T) {
	for _, s := range []int64{0, 1, -1, 1_000_002, -9_223_372_036_854_775_807} {
		if got := expSeed(s); got <= 0 {
			t.Errorf("expSeed(%d) = %d", s, got)
		}
	}
	if expSeed(4) == expSeed(5) {
		t.Error("neighbouring seeds map to one hetbench seed")
	}
}

// TestLoadAgainstService drives a short load through a real in-process
// service, so the two clients, the pair rendezvous and the checks run
// concurrently under the race detector.
func TestLoadAgainstService(t *testing.T) {
	ctx := context.Background()
	sc := newScript(1)
	var warm []service.RunRequest
	for _, r := range sc.warm {
		if r.Experiment == "table2" || r.Experiment == "table3" || r.Experiment == missExp {
			warm = append(warm, r)
		}
	}
	sc.warm = warm
	env, err := startService(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}
	ld := env.load(ctx, sc, 2*time.Second)
	if err := env.close(); err != nil {
		t.Error(err)
	}
	if len(ld.Failures) > 0 {
		t.Errorf("%d failed requests, first: %s", len(ld.Failures), ld.Failures[0])
	}
	if len(ld.Hits) == 0 || ld.Attempted != len(ld.Hits)+len(ld.Misses) {
		t.Errorf("%d attempted, %d hits, %d misses", ld.Attempted, len(ld.Hits), len(ld.Misses))
	}
}
