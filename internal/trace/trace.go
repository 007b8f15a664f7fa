// Package trace is the structured observability layer: hierarchical spans
// over the simulator's virtual clocks plus a run-wide counter registry.
//
// The simulated Machine emits kernel/transfer/fault spans natively, and
// applications open run and iteration spans around them (sim.Machine's
// InRun/InIteration), producing the hierarchy app run → iteration →
// kernel/transfer. Spans carry the attributes the paper's analyses need
// (device, bound resource, bytes, wavefronts) and export to Chrome
// trace_event JSON (Perfetto / chrome://tracing), CSV, and the ASCII
// timeline in internal/report.
//
// A Tracer is safe for concurrent use: span IDs are allocated atomically
// and emission appends under one mutex, so kernels launched from multiple
// goroutines (the MPI+X ranks, the concurrent-clock tests) record cleanly
// under -race. When no tracer is attached the simulator's hot paths pay a
// single nil check.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a span in the hierarchy.
type Kind string

// Span kinds, outermost first.
const (
	KindRun       Kind = "run"
	KindIteration Kind = "iteration"
	KindKernel    Kind = "kernel"
	KindTransfer  Kind = "transfer"
	// KindFault marks virtual time lost to an injected fault or its
	// recovery (failed launch, watchdog wait, backoff, retransmission).
	KindFault Kind = "fault"
)

// Track names used by the simulator. Each machine (process) renders these
// as separate virtual-clock rows, so kernel/transfer overlap is visible.
const (
	TrackPhases      = "phases"
	TrackHost        = "host"
	TrackAccelerator = "accelerator"
	TrackPCIe        = "pcie"
)

// Span is one completed operation or phase on a virtual-clock track.
// Zero-valued attribute fields mean "not applicable" and are omitted by
// the exporters.
type Span struct {
	ID     uint64
	Parent uint64 // 0 = root
	Proc   int    // index of the emitting process (machine), see Processes
	Track  string
	Name   string
	Kind   Kind

	StartNs float64
	DurNs   float64

	// Attributes.
	Device     string // device the operation ran on
	Bound      string // limiting resource for kernels ("alu","mem","lds","issue","host")
	Dir        string // transfer direction ("h2d","d2h")
	Bytes      int64  // transfer payload
	Items      int    // kernel global work size
	Wavefronts int    // whole wavefronts the launch occupied
}

// EndNs returns the span's end time on its virtual clock.
func (s Span) EndNs() float64 { return s.StartNs + s.DurNs }

// Tracer collects spans and counters for one traced run (possibly spanning
// several machines, each registered as a process).
type Tracer struct {
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []Span
	procs []string

	metrics Registry
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// NewSpanID allocates a unique span ID (IDs start at 1; 0 means "no
// parent").
func (t *Tracer) NewSpanID() uint64 { return t.nextID.Add(1) }

// RegisterProcess names a virtual-clock group (one simulated machine) and
// returns its index. Processes become Chrome-trace pids.
func (t *Tracer) RegisterProcess(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.procs = append(t.procs, name)
	return len(t.procs) - 1
}

// Processes returns the registered process names in index order.
func (t *Tracer) Processes() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.procs))
	copy(out, t.procs)
	return out
}

// Emit records a completed span, assigning an ID if the caller left it 0.
func (t *Tracer) Emit(s Span) {
	if s.ID == 0 {
		s.ID = t.NewSpanID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Len returns the number of spans emitted so far.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of all emitted spans in emission order (children
// precede the parents that enclose them, since parents emit at End).
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Metrics returns the tracer's counter registry.
func (t *Tracer) Metrics() *Registry { return &t.metrics }

// Fold appends a child tracer's processes, spans and counters into t,
// remapping process indices and span IDs so identities stay unique in the
// combined trace. This is how the parallel experiment runner keeps traced
// runs deterministic: every concurrently-executing cell records into its
// own private tracer, and the cells are folded into the run-wide tracer
// in cell order after all of them finish — so the merged span set is
// identical at any worker count. Fold assumes every child span ID was
// allocated by the child's NewSpanID (the Machine's emission path); a
// span carrying a hand-picked ID above the child's high-water mark could
// collide after remapping.
func (t *Tracer) Fold(child *Tracer) {
	if child == nil || child == t {
		return
	}
	spans := child.Spans()
	procs := child.Processes()
	// Reserve the child's whole ID range atomically, then shift every
	// child ID into it (parent 0 means "root" and stays 0).
	used := child.nextID.Load()
	offset := t.nextID.Add(used) - used
	t.mu.Lock()
	procBase := len(t.procs)
	t.procs = append(t.procs, procs...)
	for _, s := range spans {
		s.ID += offset
		if s.Parent != 0 {
			s.Parent += offset
		}
		s.Proc += procBase
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
	t.metrics.Merge(child.Metrics())
}

// ByStart returns the spans sorted by (proc, track, start, -duration):
// the stable timeline order the exporters and renderers use, with
// enclosing spans ahead of the children that share their start time.
func ByStart(spans []Span) []Span {
	out := make([]Span, len(spans))
	copy(out, spans)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.StartNs != b.StartNs {
			return a.StartNs < b.StartNs
		}
		return a.DurNs > b.DurNs
	})
	return out
}
