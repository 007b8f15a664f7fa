// Package workload defines declarative multi-kernel workload specs: a
// JSON description of an application as a set of kernels with measured
// op/byte counts, working-set buffers, wavefront hints and data
// dependencies forming a DAG, plus HeteroBench-style per-kernel device
// placement. A spec is parsed strictly (unknown fields rejected),
// validated (references, ranges, duplicate names, self-edges, cycles) and
// compiled into a Program: resolved buffer indices, a deduplicated
// dependency graph derived from the buffer dataflow, and a deterministic
// topological order. The interpreter in interp.go executes Programs
// through sim.Machine under any of the three GPU programming models,
// pricing each model's data-movement strategy per dependency edge with
// one residency rule. Every run is a sched.DagPlanner schedule on the
// machine's device queues: the serial baseline (sched.SerialDag) or a
// policy that co-schedules both devices.
//
// New scenarios cost a JSON file, not a Go package (ROADMAP item 2): the
// four shipped specs under specs/ are the first config-defined workloads.
package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim/exec"
)

// Buffer is one named working-set allocation kernels read and write.
type Buffer struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// Kernel is one kernel of the workload: its code-generation class and
// per-item operation counts (the same per-item averages timing.KernelCost
// consumes), the buffers it touches, explicit ordering edges, and an
// optional device constraint.
type Kernel struct {
	Name string `json:"name"`
	// Class is the code-generation difficulty: streaming | regular |
	// irregular (see modelapi.KernelClass).
	Class string `json:"class"`
	// Items is the NDRange size — one work item per element.
	Items int `json:"items"`
	// WavefrontHint, when above 1, pads the launch to a multiple of this
	// many items (the dispatch rounds partially-filled wavefronts up).
	WavefrontHint int `json:"wavefront_hint,omitempty"`

	// Per-item averages, as measured by replaying the kernel through the
	// functional executor (or estimated for synthetic specs).
	SPFlops    float64 `json:"sp_flops,omitempty"`
	DPFlops    float64 `json:"dp_flops,omitempty"`
	LoadBytes  float64 `json:"load_bytes,omitempty"`
	StoreBytes float64 `json:"store_bytes,omitempty"`
	LDSBytes   float64 `json:"lds_bytes,omitempty"`
	Instrs     float64 `json:"instrs,omitempty"`
	// MissRate is the LLC miss rate in [0,1]; Coalesce the wavefront
	// coalescing efficiency in (0,1] (0 defaults to 1).
	MissRate float64 `json:"miss_rate,omitempty"`
	Coalesce float64 `json:"coalesce,omitempty"`

	// Reads and Writes name the buffers the kernel consumes and produces;
	// dependency edges are derived from this dataflow in declaration
	// order (read-after-write, write-after-write, write-after-read).
	Reads  []string `json:"reads,omitempty"`
	Writes []string `json:"writes,omitempty"`
	// After adds explicit ordering edges beyond the dataflow (barriers,
	// side effects the buffer model cannot see).
	After []string `json:"after,omitempty"`
	// Device constrains placement: "any" (default), "host" or "accel" —
	// HeteroBench's per-kernel backend selection.
	Device string `json:"device,omitempty"`
}

// Spec is one declarative workload.
type Spec struct {
	Name  string `json:"name"`
	Title string `json:"title,omitempty"`
	// Iterations is how many times the whole DAG runs (a solver's outer
	// loop); 0 means 1.
	Iterations int      `json:"iterations,omitempty"`
	Buffers    []Buffer `json:"buffers"`
	Kernels    []Kernel `json:"kernels"`
}

// Parse decodes one spec strictly — unknown fields and trailing data are
// errors, so a typo in a config file fails loudly instead of silently
// dropping a constraint — and compiles it, so every returned Spec is
// valid and acyclic.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("workload: trailing data after spec %q", s.Name)
	}
	if _, err := s.Compile(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Program is a compiled spec: resolved indices, the derived dependency
// graph and a deterministic topological order, ready for the interpreter
// and the DAG planner.
type Program struct {
	Spec *Spec

	Class []modelapi.KernelClass // per kernel
	Place []sched.Placement      // per kernel
	// Reads and Writes hold buffer indices per kernel, in declaration
	// order, deduplicated.
	Reads  [][]int
	Writes [][]int
	// Deps holds, per kernel, the sorted deduplicated indices of kernels
	// that must finish first (dataflow plus After edges).
	Deps [][]int
	// Order is the deterministic topological order: Kahn's algorithm with
	// the ready set drained in spec-declaration order.
	Order []int
	// Edges is the total dependency-edge count.
	Edges int
	// Output marks each buffer whose final write no kernel consumes —
	// the workload's results, the only buffers a programmer reads back
	// at the end of an explicitly-staged run.
	Output []bool
}

// Compile validates the spec and builds its Program. Errors name the
// offending kernel or buffer.
func (s *Spec) Compile() (*Program, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("workload: spec missing name")
	}
	if s.Iterations < 0 {
		return nil, fmt.Errorf("workload: spec %s: iterations %d must not be negative", s.Name, s.Iterations)
	}
	if len(s.Kernels) == 0 {
		return nil, fmt.Errorf("workload: spec %s has no kernels", s.Name)
	}

	bufIdx := make(map[string]int, len(s.Buffers))
	for i, b := range s.Buffers {
		if b.Name == "" {
			return nil, fmt.Errorf("workload: spec %s: buffer %d missing name", s.Name, i)
		}
		if _, dup := bufIdx[b.Name]; dup {
			return nil, fmt.Errorf("workload: spec %s: duplicate buffer name %q", s.Name, b.Name)
		}
		if b.Bytes <= 0 {
			return nil, fmt.Errorf("workload: spec %s: buffer %s size %d must be positive", s.Name, b.Name, b.Bytes)
		}
		bufIdx[b.Name] = i
	}

	n := len(s.Kernels)
	kernIdx := make(map[string]int, n)
	for i, k := range s.Kernels {
		if k.Name == "" {
			return nil, fmt.Errorf("workload: spec %s: kernel %d missing name", s.Name, i)
		}
		if _, dup := kernIdx[k.Name]; dup {
			return nil, fmt.Errorf("workload: spec %s: duplicate kernel name %q", s.Name, k.Name)
		}
		kernIdx[k.Name] = i
	}

	p := &Program{
		Spec:   s,
		Class:  make([]modelapi.KernelClass, n),
		Place:  make([]sched.Placement, n),
		Reads:  make([][]int, n),
		Writes: make([][]int, n),
		Deps:   make([][]int, n),
	}

	depSet := make([]map[int]bool, n)
	addDep := func(from, to int) {
		if from == to {
			return // a kernel both reading and writing a buffer is not a self-edge
		}
		if depSet[to] == nil {
			depSet[to] = make(map[int]bool)
		}
		depSet[to][from] = true
	}

	// Dataflow state per buffer, advanced in declaration order.
	lastWriter := make([]int, len(s.Buffers))
	readersSince := make([][]int, len(s.Buffers))
	for i := range lastWriter {
		lastWriter[i] = -1
	}

	for i, k := range s.Kernels {
		var err error
		if p.Class[i], err = parseClass(k.Class); err != nil {
			return nil, fmt.Errorf("workload: spec %s: kernel %s: %w", s.Name, k.Name, err)
		}
		if p.Place[i], err = parseDevice(k.Device); err != nil {
			return nil, fmt.Errorf("workload: spec %s: kernel %s: %w", s.Name, k.Name, err)
		}
		if k.Items <= 0 || k.Items > maxItems {
			return nil, fmt.Errorf("workload: spec %s: kernel %s: items %d outside [1,%d]", s.Name, k.Name, k.Items, maxItems)
		}
		if k.WavefrontHint < 0 || k.WavefrontHint > maxItems {
			return nil, fmt.Errorf("workload: spec %s: kernel %s: wavefront_hint %d outside [0,%d]", s.Name, k.Name, k.WavefrontHint, maxItems)
		}
		if bad, v := perItemOutOfRange(k); bad != "" {
			return nil, fmt.Errorf("workload: spec %s: kernel %s: %s %g outside [0,%g]", s.Name, k.Name, bad, v, maxPerItem)
		}
		if k.MissRate < 0 || k.MissRate > 1 {
			return nil, fmt.Errorf("workload: spec %s: kernel %s: miss_rate %g outside [0,1]", s.Name, k.Name, k.MissRate)
		}
		if k.Coalesce < 0 || k.Coalesce > 1 {
			return nil, fmt.Errorf("workload: spec %s: kernel %s: coalesce %g outside [0,1]", s.Name, k.Name, k.Coalesce)
		}

		seen := map[int]bool{}
		for _, name := range k.Reads {
			b, ok := bufIdx[name]
			if !ok {
				return nil, fmt.Errorf("workload: spec %s: kernel %s reads unknown buffer %q", s.Name, k.Name, name)
			}
			if seen[b] {
				continue
			}
			seen[b] = true
			p.Reads[i] = append(p.Reads[i], b)
			if lastWriter[b] >= 0 {
				addDep(lastWriter[b], i) // read-after-write
			}
			readersSince[b] = append(readersSince[b], i)
		}
		seen = map[int]bool{}
		for _, name := range k.Writes {
			b, ok := bufIdx[name]
			if !ok {
				return nil, fmt.Errorf("workload: spec %s: kernel %s writes unknown buffer %q", s.Name, k.Name, name)
			}
			if seen[b] {
				continue
			}
			seen[b] = true
			p.Writes[i] = append(p.Writes[i], b)
			if lastWriter[b] >= 0 {
				addDep(lastWriter[b], i) // write-after-write
			}
			for _, r := range readersSince[b] {
				addDep(r, i) // write-after-read
			}
			lastWriter[b] = i
			readersSince[b] = nil
		}
		for _, name := range k.After {
			j, ok := kernIdx[name]
			if !ok {
				return nil, fmt.Errorf("workload: spec %s: kernel %s is after unknown kernel %q", s.Name, k.Name, name)
			}
			if j == i {
				return nil, fmt.Errorf("workload: spec %s: kernel %s is after itself", s.Name, k.Name)
			}
			addDep(j, i)
		}
	}

	p.Output = make([]bool, len(s.Buffers))
	for b := range p.Output {
		// Written, and no reader after the last write: a terminal result.
		p.Output[b] = lastWriter[b] >= 0 && len(readersSince[b]) == 0
	}

	for i := range depSet {
		for d := range depSet[i] {
			p.Deps[i] = append(p.Deps[i], d)
		}
		sort.Ints(p.Deps[i])
		p.Edges += len(p.Deps[i])
	}

	// Kahn's algorithm, draining the ready set in declaration order so
	// the topological order is a pure function of the spec.
	indeg := make([]int, n)
	for i := range p.Deps {
		indeg[i] = len(p.Deps[i])
	}
	placed := make([]bool, n)
	for len(p.Order) < n {
		pick := -1
		for i := 0; i < n; i++ {
			if !placed[i] && indeg[i] == 0 {
				pick = i
				break
			}
		}
		if pick < 0 {
			var stuck []string
			for i := 0; i < n; i++ {
				if !placed[i] {
					stuck = append(stuck, s.Kernels[i].Name)
				}
			}
			return nil, fmt.Errorf("workload: spec %s: dependency cycle among kernels %v", s.Name, stuck)
		}
		placed[pick] = true
		p.Order = append(p.Order, pick)
		for i := 0; i < n; i++ {
			for _, d := range p.Deps[i] {
				if d == pick {
					indeg[i]--
				}
			}
		}
	}
	return p, nil
}

// maxItems and maxPerItem bound a kernel's launch size and per-item
// counts, so every total the timing model forms (items × per-item, and
// the wavefront-padded launch) stays finite and in range.
const (
	maxItems   = 1 << 40
	maxPerItem = 1e12
)

// perItemOutOfRange returns the first per-item field outside
// [0, maxPerItem], if any.
func perItemOutOfRange(k Kernel) (string, float64) {
	fields := []struct {
		name string
		v    float64
	}{
		{"sp_flops", k.SPFlops}, {"dp_flops", k.DPFlops},
		{"load_bytes", k.LoadBytes}, {"store_bytes", k.StoreBytes},
		{"lds_bytes", k.LDSBytes}, {"instrs", k.Instrs},
	}
	for _, f := range fields {
		if f.v < 0 || f.v > maxPerItem {
			return f.name, f.v
		}
	}
	return "", 0
}

// parseClass maps the spec's class string to a modelapi.KernelClass.
func parseClass(s string) (modelapi.KernelClass, error) {
	switch s {
	case "streaming":
		return modelapi.Streaming, nil
	case "regular":
		return modelapi.Regular, nil
	case "irregular":
		return modelapi.Irregular, nil
	default:
		return 0, fmt.Errorf("unknown class %q (streaming|regular|irregular)", s)
	}
}

// parseDevice maps the spec's device string to a sched.Placement.
func parseDevice(s string) (sched.Placement, error) {
	switch s {
	case "", "any":
		return sched.PlaceAny, nil
	case "host":
		return sched.PlaceHost, nil
	case "accel":
		return sched.PlaceAccel, nil
	default:
		return 0, fmt.Errorf("unknown device %q (any|host|accel)", s)
	}
}

// iterations returns the spec's effective outer-loop count.
func (s *Spec) iterations() int {
	if s.Iterations <= 0 {
		return 1
	}
	return s.Iterations
}

// launchItems returns kernel k's padded NDRange size: items rounded up to
// the wavefront hint.
func (p *Program) launchItems(k int) int {
	kern := p.Spec.Kernels[k]
	items := kern.Items
	if h := kern.WavefrontHint; h > 1 {
		items = (items + h - 1) / h * h
	}
	return items
}

// kernelSpec assembles kernel k's modelapi description.
func (p *Program) kernelSpec(k int) modelapi.KernelSpec {
	kern := p.Spec.Kernels[k]
	co := kern.Coalesce
	if co == 0 {
		co = 1
	}
	return modelapi.KernelSpec{
		Name:     kern.Name,
		Class:    p.Class[k],
		MissRate: kern.MissRate,
		Coalesce: co,
	}
}

// perItem assembles kernel k's per-item counters.
func (p *Program) perItem(k int) exec.Counters {
	kern := p.Spec.Kernels[k]
	return exec.Counters{
		SPFlops:    kern.SPFlops,
		DPFlops:    kern.DPFlops,
		LoadBytes:  kern.LoadBytes,
		StoreBytes: kern.StoreBytes,
		LDSBytes:   kern.LDSBytes,
		Instrs:     kern.Instrs,
	}
}
