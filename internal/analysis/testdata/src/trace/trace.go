// Package trace is a testdata stub mirroring the counter registry
// hetlint's counterkey analyzer matches in the real internal/trace
// package.
package trace

// Canonical counter-name constants, as in the real registry.
const (
	CtrKernelNs = "kernel.ns"
	// CtrFaultPrefix prefixes the per-kind injected-fault counters.
	CtrFaultPrefix = "fault."
)

// Registry is the counter registry stub.
type Registry struct{}

// Add accumulates v into the named counter.
func (r *Registry) Add(name string, v float64) {}

// HistKernelNs is a histogram-name constant, as in the real registry.
const HistKernelNs = "hist.kernel.ns"

// Observe adds one value to the named histogram.
func (r *Registry) Observe(name string, v float64) {}
