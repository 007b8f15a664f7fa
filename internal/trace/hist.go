package trace

import "math"

// Canonical histogram names the simulator publishes. Histograms live in
// their own "hist." namespace (checked on export, see checkName) so a
// registry snapshot cleanly separates scalar totals from distributions.
// Each name records one hot path's per-operation latency in virtual
// nanoseconds.
const (
	// HistKernelNs is the per-launch kernel latency distribution,
	// published by sim.Machine on every successful launch.
	HistKernelNs = "hist.kernel.ns"
	// HistTransferNs is the per-transfer PCIe service-time distribution.
	HistTransferNs = "hist.transfer.ns"
	// HistFaultNs is the per-event fault recovery cost distribution:
	// failed attempts, watchdog waits, backoff delays, retransmissions
	// and device-loss stalls, one observation each.
	HistFaultNs = "hist.fault.recovery.ns"
	// HistChunkNs is the co-execution scheduler's per-chunk service-time
	// distribution across both device queues.
	HistChunkNs = "hist.sched.chunk.ns"
	// HistCellNs is the experiment runner's per-cell wall-time
	// distribution. It is wall-clock (not virtual) time, so the runner
	// keeps it in its Stats rather than in any merged capture registry —
	// the name exists so progress events and stats lines share one label.
	HistCellNs = "hist.runner.cell.ns"
	// HistServiceRequestNs is hetbenchd's end-to-end request latency
	// distribution (wall-clock, admission through response), published to
	// the service's own registry — never to an experiment capture, so it
	// cannot perturb golden output.
	HistServiceRequestNs = "hist.service.request.ns"
	// HistFleetQueueNs is the fleet simulator's per-job queue-wait
	// distribution: virtual time between a job's arrival at the cluster
	// and the start of its (final, post-migration) service.
	HistFleetQueueNs = "hist.fleet.queue.ns"
	// HistFleetJobNs is the fleet simulator's per-job sojourn distribution:
	// virtual time from arrival to completion, including queueing, any
	// migration penalties and wasted partial executions.
	HistFleetJobNs = "hist.fleet.job.ns"
)

// Histogram bucket layout: log-linear buckets in the HDR-histogram
// style — one octave per power of two, each octave split into four
// linear sub-buckets (boundaries at 2^oct × {1, 1.25, 1.5, 1.75}, so
// 12.5–25% relative width) — spanning [1, 2^64) with one underflow and
// one overflow bucket. Every boundary is an exact binary fraction times
// a power of two, so bucketing involves no transcendental math: a value
// lands in the same bucket on every platform and every run — the
// property that makes per-cell histograms mergeable in deterministic
// cell order with bit-identical results at any worker count.
const (
	histSubBuckets = 4
	histOctaves    = 64
	// histBuckets = underflow + histOctaves*histSubBuckets + overflow.
	histBuckets = histOctaves*histSubBuckets + 2
	// histMax is the first value past the last finite bucket (2^64).
	histMax = 0x1p64
)

// histBucket maps a value to its bucket index. Values below 1 (including
// zero, negatives and NaN, which durations never are) share the
// underflow bucket; values at or above 2^64 share the overflow bucket.
func histBucket(v float64) int {
	if !(v >= 1) { // NaN-safe: NaN fails every comparison
		return 0
	}
	if v >= histMax {
		return histBuckets - 1
	}
	frac, exp := math.Frexp(v)                // v = frac * 2^exp, frac in [0.5, 1)
	oct := exp - 1                            // v in [2^oct, 2^(oct+1))
	sub := int((frac*2 - 1) * histSubBuckets) // frac*2 in [1, 2): exact quarter steps
	return 1 + oct*histSubBuckets + sub
}

// histUpper returns bucket i's upper boundary (the value below which all
// of the bucket's observations fall). Bucket i covers
// [2^oct·(1+sub/4), 2^oct·(1+(sub+1)/4)) with oct = (i-1)/4 and
// sub = (i-1)%4. The underflow bucket's upper bound is 1; the overflow
// bucket has no finite bound and returns +Inf.
func histUpper(i int) float64 {
	if i <= 0 {
		return 1
	}
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	oct := (i - 1) / histSubBuckets
	sub := (i - 1) % histSubBuckets
	return math.Ldexp(1+float64(sub+1)/histSubBuckets, oct)
}

// Histogram is a fixed-boundary log-bucketed latency distribution. The
// zero value is empty and ready to use. Histogram is NOT internally
// synchronized — a Registry serializes access to the histograms it owns,
// and a stand-alone Histogram (the runner's cell-time tally) needs its
// owner's lock.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe adds one value to the distribution.
func (h *Histogram) Observe(v float64) {
	h.counts[histBucket(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts:
// it walks the cumulative distribution to the covering bucket and reports
// that bucket's upper boundary, clamped into [min, max] so single-bucket
// and extreme quantiles stay within the observed range. The estimate is a
// pure function of the (deterministically merged) bucket counts, so it is
// bit-identical at any worker count. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Rank of the target observation, 1-based: ceil(q * count).
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			est := histUpper(i)
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
	}
	return h.max
}

// Merge folds src into h: bucket counts, count and sum accumulate,
// min/max widen. Merging per-cell histograms into the run-wide one in a
// fixed cell order replays the same addition sequence at any worker
// count, so the merged result is bit-identical (the counter Registry's
// contract, extended to distributions).
func (h *Histogram) Merge(src *Histogram) {
	if src == nil || src.count == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += src.counts[i]
	}
	if h.count == 0 || src.min < h.min {
		h.min = src.min
	}
	if h.count == 0 || src.max > h.max {
		h.max = src.max
	}
	h.count += src.count
	h.sum += src.sum
}

// Clone returns a copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	out := *h
	return &out
}
