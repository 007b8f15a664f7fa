package trace

import (
	"math"
	"testing"
)

// Every bucket's value range must sit strictly below its upper boundary
// and at or above the previous bucket's — otherwise quantiles drift.
func TestHistBucketBoundaries(t *testing.T) {
	for i := 1; i < histBuckets-1; i++ {
		lower := histUpper(i - 1)
		upper := histUpper(i)
		if !(lower < upper) {
			t.Fatalf("bucket %d: lower %g not below upper %g", i, lower, upper)
		}
		// The lower boundary itself belongs to bucket i, and the value just
		// below the upper boundary must not spill into bucket i+1.
		if got := histBucket(lower); got != i {
			t.Errorf("histBucket(%g) = %d, want %d", lower, got, i)
		}
		probe := math.Nextafter(upper, 0)
		if got := histBucket(probe); got != i {
			t.Errorf("histBucket(%g) = %d, want %d (upper %g)", probe, got, i, upper)
		}
	}
	// Underflow and overflow.
	for _, v := range []float64{0, -3, 0.5, math.Inf(-1), math.NaN()} {
		if got := histBucket(v); got != 0 {
			t.Errorf("histBucket(%g) = %d, want underflow bucket 0", v, got)
		}
	}
	if got := histBucket(math.Inf(1)); got != histBuckets-1 {
		t.Errorf("histBucket(+Inf) = %d, want overflow bucket %d", got, histBuckets-1)
	}
	if got := histBucket(math.Ldexp(1, 64)); got != histBuckets-1 {
		t.Errorf("histBucket(2^64) = %d, want overflow bucket %d", got, histBuckets-1)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for v := 1.0; v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.min != 1 || h.Max() != 1000 {
		t.Fatalf("count/min/max = %d/%g/%g", h.Count(), h.min, h.Max())
	}
	if got := h.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Errorf("Mean = %g, want 500.5", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %g, want min 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("q1 = %g, want max 1000", got)
	}
	// A sub-bucket is at most 25% wide, so the estimate must sit within
	// one bucket width above the true quantile.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		truth := q * 1000
		got := h.Quantile(q)
		if got < truth || got > truth*1.25 {
			t.Errorf("q%g = %g, want in [%g, %g]", q, got, truth, truth*1.25)
		}
	}
	// Quantiles never escape the observed range, even in overflow.
	h.Observe(math.Ldexp(1, 70))
	if got := h.Quantile(0.9999); got != math.Ldexp(1, 70) {
		t.Errorf("overflow quantile = %g, want clamped to max", got)
	}
}

// Merging per-part histograms must reproduce the single-histogram result
// exactly — the property the runner's deterministic fold relies on.
func TestHistMergeMatchesCombined(t *testing.T) {
	var whole, a, b Histogram
	for i := 0; i < 500; i++ {
		v := float64(i%97)*13.25 + 1
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	merged := a.Clone()
	merged.Merge(&b)
	if merged.Count() != whole.Count() || merged.sum != whole.sum {
		t.Fatalf("count/sum: merged %d/%g, whole %d/%g", merged.Count(), merged.sum, whole.Count(), whole.sum)
	}
	if merged.min != whole.min || merged.Max() != whole.Max() {
		t.Errorf("min/max: merged %g/%g, whole %g/%g", merged.min, merged.Max(), whole.min, whole.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if mq, wq := merged.Quantile(q), whole.Quantile(q); mq != wq {
			t.Errorf("q%g: merged %g, whole %g", q, mq, wq)
		}
	}
	// Merging an empty histogram is a no-op.
	before := *merged
	merged.Merge(&Histogram{})
	merged.Merge(nil)
	if *merged != before {
		t.Error("merging empty/nil changed the histogram")
	}
}

func TestRegistryHistograms(t *testing.T) {
	var r Registry
	if r.Hist(HistKernelNs) != nil || len(r.HistNames()) != 0 {
		t.Fatal("fresh registry reports histograms")
	}
	r.Observe(HistKernelNs, 10)
	r.Observe(HistKernelNs, 20)
	r.Observe(HistTransferNs, 5)
	names := r.HistNames()
	if len(names) != 2 || names[0] != HistKernelNs || names[1] != HistTransferNs {
		t.Fatalf("HistNames = %v", names)
	}
	h := r.Hist(HistKernelNs)
	if h.Count() != 2 || h.sum != 30 {
		t.Fatalf("kernel hist count/sum = %d/%g", h.Count(), h.sum)
	}
	// Hist returns a copy: mutating it must not affect the registry.
	h.Observe(1e9)
	if got := r.Hist(HistKernelNs).Count(); got != 2 {
		t.Errorf("registry histogram mutated through the returned copy (count %d)", got)
	}

	var dst Registry
	dst.Observe(HistKernelNs, 40)
	dst.Merge(&r)
	if got := dst.Hist(HistKernelNs); got.Count() != 3 || got.sum != 70 {
		t.Errorf("merged kernel hist count/sum = %d/%g, want 3/70", got.Count(), got.sum)
	}
	if got := dst.Hist(HistTransferNs); got == nil || got.Count() != 1 {
		t.Errorf("merge did not adopt the transfer histogram: %+v", got)
	}
}

// The steady-state Observe path (histogram already created) must not
// allocate: it runs inside the simulator's launch hot path.
func TestObserveSteadyStateAllocs(t *testing.T) {
	var r Registry
	r.Observe(HistKernelNs, 1)
	if avg := testing.AllocsPerRun(1000, func() {
		r.Observe(HistKernelNs, 42)
	}); avg != 0 {
		t.Errorf("Registry.Observe steady state allocates %.1f/op, want 0", avg)
	}
	var h Histogram
	h.Observe(1)
	if avg := testing.AllocsPerRun(1000, func() {
		h.Observe(42)
	}); avg != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op, want 0", avg)
	}
}
