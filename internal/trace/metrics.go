package trace

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Counter names a registry counter. Add takes a Counter, so a name built
// at run time compiles at a call site only through an explicit
// conversion; the untyped Ctr* constants convert implicitly.
type Counter string

// Hist names a registry histogram; Observe takes one, as Add takes a
// Counter.
type Hist string

// Canonical counter names the simulator publishes. Substrates add to these
// instead of keeping private accumulators, so any consumer (the energy
// extension, the profile experiment, dashboards) reads one registry.
const (
	CtrKernelLaunches = "kernel.launches"
	CtrKernelNs       = "kernel.ns"
	CtrTransferCount  = "transfer.count"
	CtrTransferNs     = "transfer.ns"
	CtrBytesH2D       = "transfer.h2d.bytes"
	CtrBytesD2H       = "transfer.d2h.bytes"
	CtrDRAMBytes      = "dram.bytes"
	CtrLLCHitBytes    = "llc.hit.bytes"
	CtrLLCMissBytes   = "llc.miss.bytes"
	CtrLDSBytes       = "lds.bytes"
	CtrSPFlops        = "flops.sp"
	CtrDPFlops        = "flops.dp"
	CtrInstrs         = "instrs"
	CtrEnergyJ        = "energy.j"

	// Table I's characterization, added per launch: IPC-weighted kernel
	// time (over kernel.ns it is the time-weighted mean IPC) and kernel
	// time less launch overhead, split by the resource the timing model
	// names as the limit.
	CtrKernelIPCNs        = "kernel.ipc.ns"
	CtrKernelBoundALUNs   = "kernel.bound.alu.ns"
	CtrKernelBoundMemNs   = "kernel.bound.mem.ns"
	CtrKernelBoundLDSNs   = "kernel.bound.lds.ns"
	CtrKernelBoundIssueNs = "kernel.bound.issue.ns"

	// Fault-injection and resilience counters (see internal/fault). Each
	// injected fault also increments a per-kind counter named
	// CtrFaultPrefix + kind ("fault.launch-fail", "fault.hang", ...).
	CtrFaultNs       = "fault.ns"              // virtual time lost to faults + recovery
	CtrRetries       = "resilience.retries"    // kernel relaunch attempts
	CtrBackoffNs     = "resilience.backoff.ns" // virtual time spent backing off
	CtrWatchdogKills = "resilience.watchdog"   // hung kernels killed
	CtrFallbacks     = "resilience.fallbacks"  // launches rerouted to the host CPU
	CtrRetransmits   = "resilience.retransmit" // CRC-failed transfers resent
	CtrSDCRedos      = "resilience.sdc.redos"  // whole-run redos on checksum mismatch

	// Co-execution scheduler counters (see internal/sched): published per
	// split launch so a trace capture shows how the iteration space was
	// carved between the host CPU and the accelerator.
	CtrSchedSplits      = "sched.splits"       // launches split across both devices
	CtrSchedChunks      = "sched.chunks"       // chunks booked (both devices)
	CtrSchedHostItems   = "sched.host.items"   // work items run on the host CPU
	CtrSchedAccelItems  = "sched.accel.items"  // work items run on the accelerator
	CtrSchedHostNs      = "sched.host.ns"      // host queue busy time
	CtrSchedAccelNs     = "sched.accel.ns"     // accelerator queue busy time
	CtrSchedImbalanceNs = "sched.imbalance.ns" // |host busy - accel busy| per split
	CtrSchedMigrated    = "sched.migrated"     // chunks migrated host-ward on device loss

	// DAG-scheduler counters (see internal/sched's DagPlanner): published
	// once per DAG launch so a trace capture shows how a multi-kernel
	// workload was spread across the two devices.
	CtrDagLaunches     = "sched.dag.launches"      // DAG workloads planned
	CtrDagKernels      = "sched.dag.kernels"       // kernels booked (both devices)
	CtrDagEdges        = "sched.dag.edges"         // dependency edges honored
	CtrDagHostKernels  = "sched.dag.host.kernels"  // kernels run on the host CPU
	CtrDagAccelKernels = "sched.dag.accel.kernels" // kernels run on the accelerator
	CtrDagRebooked     = "sched.dag.rebooked"      // kernels rebooked host-ward on device loss
	CtrDagIdleNs       = "sched.dag.idle.ns"       // dependency-wait gaps on both queues

	// Workload-interpreter counters (see internal/workload): published once
	// per executed spec so a capture shows what a declarative workload cost
	// beyond its kernels.
	CtrWorkloadRuns       = "workload.runs"        // specs executed
	CtrWorkloadKernels    = "workload.kernels"     // kernel launches across all iterations
	CtrWorkloadTransfers  = "workload.transfers"   // staging copies priced by the strategy
	CtrWorkloadMovedBytes = "workload.moved.bytes" // bytes those copies moved

	// Service-plane counters (see internal/service): hetbenchd publishes
	// these to its own registry, one increment per request-path event, so
	// /metricz exposes admission, cache and failure behavior without
	// touching any experiment capture.
	CtrServiceRequests       = "service.requests"        // requests admitted to Do
	CtrServiceCacheHits      = "service.cache.hits"      // served from the result cache
	CtrServiceCacheMisses    = "service.cache.misses"    // led a fresh run
	CtrServiceCacheEvictions = "service.cache.evictions" // entries dropped for space
	CtrServiceDedupJoined    = "service.dedup.joined"    // joined an identical in-flight run
	CtrServiceShed           = "service.shed"            // rejected 429 by the admission queue
	CtrServiceCanceled       = "service.canceled"        // abandoned by their client first
	CtrServiceErrors         = "service.errors"          // runs that returned an error
	CtrServiceDegraded       = "service.degraded"        // runs degraded by a cell panic

	// Fleet-simulation counters (see internal/fleet): published once per
	// cluster run so a trace capture shows how the job stream moved
	// through the simulated fleet.
	CtrFleetSubmitted  = "fleet.jobs.submitted" // jobs offered to the cluster
	CtrFleetCompleted  = "fleet.jobs.completed" // jobs that finished service
	CtrFleetMigrated   = "fleet.jobs.migrated"  // jobs rebooked after a node loss
	CtrFleetShed       = "fleet.jobs.shed"      // jobs rejected by full/lost nodes
	CtrFleetNodeLosses = "fleet.node.losses"    // device-loss windows opened
	CtrFleetBusyNs     = "fleet.node.busy.ns"   // summed per-node busy time
	CtrFleetWastedNs   = "fleet.node.wasted.ns" // partial executions lost to migration
)

// CtrFaultPrefix prefixes the per-kind injected-fault counters.
const CtrFaultPrefix = "fault."

// namespaces are the counters' established first segments. A new
// subsystem earns its namespace by adding it here with its first
// counters.
var namespaces = map[string]bool{
	"kernel": true, "transfer": true, "dram": true, "llc": true,
	"lds": true, "flops": true, "instrs": true, "energy": true,
	"fault": true, "resilience": true, "sched": true, "service": true,
	"fleet": true, "workload": true,
}

// nameRE admits lowercase dotted names; a hyphen may join words inside a
// segment ("fault.transfer-corrupt") but never lead or trail one.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9]+(-[a-z0-9]+)*)*$`)

// checkName panics unless name keeps the registry's naming contract: a
// lowercase dotted name, in one of namespaces for a counter and under
// "hist." for a histogram. The registry checks names as it exports them
// (Snapshot, Names, Histograms, HistNames), never in Add or Observe, so
// the launch path pays nothing for the check.
func checkName(name string, hist bool) {
	seg, _, _ := strings.Cut(name, ".")
	switch {
	case !nameRE.MatchString(name):
		panic(fmt.Sprintf("trace: registry name %q is not lowercase dotted", name))
	case hist && !strings.HasPrefix(name, "hist."):
		panic(fmt.Sprintf("trace: histogram name %q is not under %q", name, "hist."))
	case !hist && !namespaces[seg]:
		panic(fmt.Sprintf("trace: counter name %q is outside the established namespaces", name))
	}
}

// Registry is a concurrent map of monotonically-accumulating counters
// and log-bucketed histograms. The zero value is ready to use.
type Registry struct {
	mu    sync.Mutex
	c     map[string]float64
	hists map[string]*Histogram
}

// Add accumulates v into the named counter.
func (r *Registry) Add(name Counter, v float64) {
	r.mu.Lock()
	if r.c == nil {
		r.c = make(map[string]float64)
	}
	r.c[string(name)] += v
	r.mu.Unlock()
}

// Get returns the named counter's current total (0 if never written).
func (r *Registry) Get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c[name]
}

// Observe adds one value to the named histogram, creating it on first
// use.
func (r *Registry) Observe(name Hist, v float64) {
	r.mu.Lock()
	h := r.hists[string(name)]
	if h == nil {
		if r.hists == nil {
			r.hists = make(map[string]*Histogram)
		}
		h = &Histogram{}
		r.hists[string(name)] = h
	}
	h.Observe(v)
	r.mu.Unlock()
}

// Hist returns a copy of the named histogram, or nil if nothing was ever
// observed under that name.
func (r *Registry) Hist(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return nil
	}
	return h.Clone()
}

// HistNames returns the histogram names in sorted order.
func (r *Registry) HistNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for k := range r.hists {
		checkName(k, true)
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Histograms returns a deep copy of all histograms.
func (r *Registry) Histograms() map[string]*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		checkName(k, true)
		out[k] = h.Clone()
	}
	return out
}

// Merge folds another registry into r: counters accumulate, histogram
// buckets add. Merging per-cell
// registries into the run-wide one in a fixed cell order yields
// bit-identical totals at any worker count, because each counter's
// additions happen in the same sequence.
func (r *Registry) Merge(src *Registry) {
	if src == nil || src == r {
		return
	}
	src.mu.Lock()
	counters := make(map[string]float64, len(src.c))
	for k, v := range src.c {
		counters[k] = v
	}
	hists := make(map[string]*Histogram, len(src.hists))
	for k, h := range src.hists {
		hists[k] = h.Clone()
	}
	src.mu.Unlock()
	r.mu.Lock()
	if r.c == nil && len(counters) > 0 {
		r.c = make(map[string]float64, len(counters))
	}
	for k, v := range counters {
		r.c[k] += v
	}
	if r.hists == nil && len(hists) > 0 {
		r.hists = make(map[string]*Histogram, len(hists))
	}
	for k, h := range hists {
		dst := r.hists[k]
		if dst == nil {
			r.hists[k] = h
			continue
		}
		dst.Merge(h)
	}
	r.mu.Unlock()
}

// Snapshot returns a copy of all counters.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.c))
	for k, v := range r.c {
		checkName(k, false)
		out[k] = v
	}
	return out
}

// Names returns the counter names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.c))
	for k := range r.c {
		checkName(k, false)
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
