// Package mpix models the "MPI" half of the paper's MPI+X framing
// (Section I: "Heterogeneous computing systems are programmed using a
// combination of programming models referred to as MPI+X"). The paper
// studies the X on a single node; this package supplies the inter-node
// substrate so the repository covers the whole stack: a cluster of ranks
// joined by a fabric, with per-rank virtual clocks and the primitives a
// slab-decomposed code needs: neighbor exchange, allreduce, and the
// job's elapsed time as the slowest rank's clock (MaxTimeNs). A rank's
// local work enters as time (AdvanceNs), priced by the caller on its own
// machine.
//
// Clock semantics are discrete-event: an exchange completes no earlier
// than both endpoints have reached its start, plus fabric latency and
// payload time; an allreduce synchronizes to the slowest participant.
// That is enough to study strong scaling and the surface-to-volume
// communication costs of domain decomposition.
package mpix

import (
	"fmt"
	"math"
)

// Fabric is the inter-node network.
type Fabric struct {
	Name string
	// LatencyUs is the one-way small-message latency.
	LatencyUs float64
	// BandwidthGBs is the per-link payload bandwidth.
	BandwidthGBs float64
}

// DefaultFabric returns a 2014-era FDR InfiniBand-class network
// (≈1.3 µs latency, ≈6 GB/s per direction).
func DefaultFabric() Fabric {
	return Fabric{Name: "FDR InfiniBand", LatencyUs: 1.3, BandwidthGBs: 6}
}

// Validate reports unusable fabrics.
func (f Fabric) Validate() error {
	if f.LatencyUs < 0 || f.BandwidthGBs <= 0 {
		return fmt.Errorf("mpix: invalid fabric %+v", f)
	}
	return nil
}

// transferNs is the wire time for one message.
func (f Fabric) transferNs(bytes int64) float64 {
	return f.LatencyUs*1e3 + float64(bytes)/f.BandwidthGBs
}

// Cluster is a set of ranks joined by one fabric. A rank carries only its
// virtual clock: callers price each rank's compute and add it with
// AdvanceNs.
type Cluster struct {
	fabric Fabric
	ranks  []*Rank
}

// Rank is one MPI process and its virtual clock.
type Rank struct {
	ID      int
	clockNs float64
}

// AdvanceNs adds local work time (compute, I/O) to the rank's clock.
func (r *Rank) AdvanceNs(ns float64) {
	if ns < 0 {
		panic(fmt.Sprintf("mpix: negative advance %g", ns))
	}
	r.clockNs += ns
}

// NewCluster builds n ranks joined by fabric.
func NewCluster(n int, fabric Fabric) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("mpix: cluster size %d must be positive", n))
	}
	if err := fabric.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{fabric: fabric}
	for i := 0; i < n; i++ {
		c.ranks = append(c.ranks, &Rank{ID: i})
	}
	return c
}

// Size returns the rank count.
func (c *Cluster) Size() int { return len(c.ranks) }

// Rank returns rank i.
func (c *Cluster) Rank(i int) *Rank {
	if i < 0 || i >= len(c.ranks) {
		panic(fmt.Sprintf("mpix: rank %d out of range [0,%d)", i, len(c.ranks)))
	}
	return c.ranks[i]
}

// Sendrecv is the symmetric neighbor exchange (MPI_Sendrecv): both ranks
// send `bytes` to each other; both complete at the same instant. The two
// payloads share the duplex fabric, so the cost is one latency plus one
// payload time.
func (c *Cluster) Sendrecv(a, b int, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("mpix: negative message size %d", bytes))
	}
	if a == b {
		panic("mpix: self-exchange")
	}
	ra, rb := c.Rank(a), c.Rank(b)
	start := math.Max(ra.clockNs, rb.clockNs)
	done := start + c.fabric.transferNs(bytes)
	ra.clockNs, rb.clockNs = done, done
}

// Allreduce combines `bytes` across all ranks (recursive doubling:
// ⌈log2(n)⌉ rounds of pairwise exchange). All ranks leave at the same
// time — the slowest arrival plus the reduction rounds.
func (c *Cluster) Allreduce(bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("mpix: negative reduce size %d", bytes))
	}
	n := len(c.ranks)
	start := 0.0
	for _, r := range c.ranks {
		start = math.Max(start, r.clockNs)
	}
	rounds := math.Ceil(math.Log2(float64(n)))
	done := start + rounds*c.fabric.transferNs(bytes)
	for _, r := range c.ranks {
		r.clockNs = done
	}
}

// MaxTimeNs returns the slowest rank's clock — the job's elapsed time.
func (c *Cluster) MaxTimeNs() float64 {
	t := 0.0
	for _, r := range c.ranks {
		t = math.Max(t, r.clockNs)
	}
	return t
}
