package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func csvQuote(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// WriteMetricsCSV serializes the tracer's counter registry as CSV: one
// row per counter (type "counter", the value column) and one per
// histogram (type "hist", with count and the p50/p95/p99/max quantile
// columns in ns). Rows are sorted by name within each type, so the file
// is byte-identical for identical registries — including across -jobs
// settings, because per-cell registries merge in deterministic cell
// order.
func WriteMetricsCSV(w io.Writer, t *Tracer) error {
	reg := t.Metrics()
	var b strings.Builder
	b.WriteString("type,name,value,count,p50_ns,p95_ns,p99_ns,max_ns\n")
	snap := reg.Snapshot()
	for _, name := range reg.Names() {
		fmt.Fprintf(&b, "counter,%s,%g,,,,,\n", csvQuote(name), snap[name])
	}
	for _, name := range reg.HistNames() {
		h := reg.Hist(name)
		fmt.Fprintf(&b, "hist,%s,,%d,%.1f,%.1f,%.1f,%.1f\n",
			csvQuote(name), h.Count(),
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Agg is one name's aggregate over a span set.
type Agg struct {
	Name    string
	Kind    Kind
	Calls   int
	TotalNs float64
	Bytes   int64
	Bound   string
}

// Aggregate groups spans of the given kinds by name and returns the
// aggregates sorted by total time, descending. An empty kinds set
// aggregates everything.
func Aggregate(spans []Span, kinds ...Kind) []Agg {
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	byName := make(map[string]*Agg)
	order := []string{}
	for _, s := range spans {
		if len(want) > 0 && !want[s.Kind] {
			continue
		}
		a := byName[s.Name]
		if a == nil {
			a = &Agg{Name: s.Name, Kind: s.Kind}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.Calls++
		a.TotalNs += s.DurNs
		a.Bytes += s.Bytes
		if s.Bound != "" {
			a.Bound = s.Bound
		}
	}
	out := make([]Agg, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalNs > out[j].TotalNs })
	return out
}

// TotalNs sums the durations of an aggregate set.
func TotalNs(aggs []Agg) float64 {
	var t float64
	for _, a := range aggs {
		t += a.TotalNs
	}
	return t
}
