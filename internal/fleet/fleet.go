package fleet

import (
	"container/heap"
	"fmt"

	"hetbench/internal/fault"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/trace"
)

// NodeKind selects a node's machine configuration.
type NodeKind int

const (
	// APU is an integrated-GPU node (unified memory, no PCIe staging).
	APU NodeKind = iota
	// DGPU is a discrete-GPU node: faster kernels, but every job pays
	// PCIe staging for its working set.
	DGPU
)

// String names the kind.
func (k NodeKind) String() string {
	if k == DGPU {
		return "dGPU"
	}
	return "APU"
}

// Node is one cluster member: a machine, its bounded FIFO queue and its
// private fault stream.
type Node struct {
	// ID is the node's index in the cluster (0-based, stable).
	ID int
	// Kind is the node's machine configuration.
	Kind NodeKind
	// Machine is the node's single-machine simulator; its timing models
	// price every job the node serves.
	Machine *sim.Machine

	inj     *fault.Injector
	pending []*booking // queued + in-flight, in booking order
	availNs float64    // when the queue drains (virtual ns)
	lostNs  float64    // end of the current device-loss window

	baseRate float64 // analytic items/ns on the reference job
	ewmaRate float64 // learned items/ns (HGuided feedback)

	busyNs   float64
	wastedNs float64
	jobs     int
	losses   int
}

// booking is one job's (possibly re-made) reservation on a node's queue.
type booking struct {
	job      Job
	node     *Node
	startNs  float64
	doneNs   float64
	svcNs    float64
	seq      int
	canceled bool
}

// bookingHeap orders live bookings by completion time, sequence-number
// tie-broken so equal times pop in booking order — the property that
// keeps the event loop bit-deterministic.
type bookingHeap []*booking

func (h bookingHeap) Len() int { return len(h) }
func (h bookingHeap) Less(i, j int) bool {
	if h[i].doneNs != h[j].doneNs {
		return h[i].doneNs < h[j].doneNs
	}
	return h[i].seq < h[j].seq
}
func (h bookingHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *bookingHeap) Push(x interface{}) { *h = append(*h, x.(*booking)) }
func (h *bookingHeap) Pop() interface{} {
	old := *h
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return b
}

// QueueCap bounds each node's pending queue (in-flight job included). A
// job offered when every eligible node is full is shed.
const QueueCap = 16

// MigrationPenaltyNs is the rebooking cost a migrated job pays on its new
// node: job state must be re-staged and the launch re-issued.
const MigrationPenaltyNs = 50e3

// Config parameterizes a Cluster.
type Config struct {
	// APUs and DGPUs count the nodes of each kind; nodes are numbered
	// APUs-first. At least one node is required.
	APUs, DGPUs int

	// Policy selects the placement balancer — the same policy enum the
	// in-machine co-execution scheduler uses, applied at cluster
	// granularity.
	Policy sched.Policy

	// Seed seeds the per-node fault streams (via fault.SubSeed, so node
	// streams never alias each other or the trace generator's stream).
	Seed int64

	// DeviceLossRate is each admission's probability of knocking the
	// chosen node out for a device-loss window (see internal/fault).
	// Zero disables fault injection. A loss window lasts the fault
	// package's DefaultDeviceLossNs.
	DeviceLossRate float64

	// Metrics, when non-nil, receives the fleet.* counters and the
	// hist.fleet.* histograms in addition to the Result — the hook the
	// harness uses to publish a run into an experiment's trace capture.
	Metrics *trace.Registry
}

// Validate reports an unusable config.
func (c Config) Validate() error {
	switch {
	case c.APUs < 0 || c.DGPUs < 0:
		return fmt.Errorf("fleet: negative node counts (%d APUs, %d dGPUs)", c.APUs, c.DGPUs)
	case c.APUs+c.DGPUs == 0:
		return fmt.Errorf("fleet: cluster needs at least one node")
	}
	// Reuse the fault package's own rate validation.
	fc := fault.Config{DeviceLossRate: c.DeviceLossRate}
	if err := fc.Validate(); err != nil {
		return err
	}
	return nil
}

// refJob is the reference job used to compute each node's nominal rate:
// one streaming kernel at the class's base size. Placement predictions
// for real jobs always use the job's own cost; the reference rate only
// seeds the static shares and the HGuided EWMA.
var refJob = Job{Class: ClassStream, Items: classBaseItems[ClassStream]}

// Cluster is a single-use fleet simulation: build with New, feed one
// trace to Run, read the Result. Nodes accumulate state across a run, so
// reuse requires a fresh Cluster. A Cluster runs on its caller's
// goroutine and is not safe for concurrent use.
type Cluster struct {
	cfg      Config
	nodes    []*Node
	bal      balancer
	seq      int
	events   bookingHeap
	svcCache map[svcKey]float64

	queueHist   *trace.Histogram
	sojournHist *trace.Histogram

	submitted int
	completed int
	migrated  int
	shed      int
	losses    int
	horizonNs float64
}

// svcKey memoizes analytic service times: nodes of one kind price a
// (class, items) pair identically.
type svcKey struct {
	kind  NodeKind
	class Class
	items int
}

// New builds a cluster. It panics on an invalid config, matching the
// substrate packages' constructor contract.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{
		cfg:         cfg,
		svcCache:    map[svcKey]float64{},
		queueHist:   &trace.Histogram{},
		sojournHist: &trace.Histogram{},
	}
	for i := 0; i < cfg.APUs+cfg.DGPUs; i++ {
		kind, mk := APU, sim.NewAPU
		if i >= cfg.APUs {
			kind, mk = DGPU, sim.NewDGPU
		}
		n := &Node{ID: i, Kind: kind, Machine: mk()}
		n.inj = fault.New(fault.Config{
			Seed:           fault.SubSeed(cfg.Seed, int64(i)+1),
			DeviceLossRate: cfg.DeviceLossRate,
		})
		c.nodes = append(c.nodes, n)
	}
	// Nominal rate on the reference job; dGPU staging included, so the
	// shares reflect delivered (not peak) throughput.
	for _, n := range c.nodes {
		n.baseRate = float64(refJob.Items) / c.serviceNs(n, refJob)
		n.ewmaRate = n.baseRate
	}
	c.bal = newBalancer(cfg.Policy, c.nodes)
	return c
}

// machineServiceNs prices job j on machine m: the accelerator roofline
// on the job's kernel cost, plus PCIe staging of the working set on
// discrete machines. Pure.
func machineServiceNs(m *sim.Machine, j Job) float64 {
	cost := j.Cost()
	t := m.AcceleratorModel().Kernel(cost).TimeNs
	if link := m.Link(); link != nil {
		in := int64(float64(cost.Items) * cost.LoadBytes)
		out := int64(float64(cost.Items) * cost.StoreBytes)
		t += (link.TransferTimeUs(in) + link.TransferTimeUs(out)) * 1e3
	}
	return t
}

// serviceNs prices job j on node n, memoized per (kind, class, items):
// nodes of one kind price a job identically.
func (c *Cluster) serviceNs(n *Node, j Job) float64 {
	key := svcKey{kind: n.Kind, class: j.Class, items: j.Items}
	t, ok := c.svcCache[key]
	if !ok {
		t = machineServiceNs(n.Machine, j)
		c.svcCache[key] = t
	}
	return t
}

// CapacityPerSec estimates the aggregate service capacity (jobs per
// second of virtual time) of a fleet of the given composition under the
// given job mix, pricing each class at its base size. Load sweeps use it
// to express arrival rates as a fraction of saturation; it is a nominal
// figure (job-size dispersion and placement skew shave real throughput),
// but a deterministic one.
func CapacityPerSec(apus, dgpus int, mix JobMix) float64 {
	shares := mix.classShares()
	kindRate := func(m *sim.Machine) float64 {
		mean := 0.0
		for ci, w := range shares {
			if w <= 0 {
				continue
			}
			class := Class(ci)
			mean += w * machineServiceNs(m, Job{Class: class, Items: classBaseItems[class]})
		}
		if mean <= 0 {
			return 0
		}
		return 1e9 / mean
	}
	total := 0.0
	if apus > 0 {
		total += float64(apus) * kindRate(sim.NewAPU())
	}
	if dgpus > 0 {
		total += float64(dgpus) * kindRate(sim.NewDGPU())
	}
	return total
}

// eligible reports whether n can accept a normal admission at time t.
func (c *Cluster) eligible(n *Node, t float64) bool {
	return t >= n.lostNs && len(n.pending) < QueueCap
}

// Run feeds the trace (arrival order) through the cluster and returns
// the aggregate result. Single-threaded and purely virtual-time, so a
// run is a deterministic function of (Config, jobs).
func (c *Cluster) Run(jobs []Job) Result {
	for _, j := range jobs {
		c.drainUntil(j.ArriveNs)
		c.submitted++
		c.admit(j.ArriveNs, j, false)
	}
	c.drainUntil(maxFloat)
	return c.finish()
}

// maxFloat drains every remaining event.
const maxFloat = 0x1p1023

// drainUntil completes every booking due at or before t, in completion
// order, applying the HGuided feedback before any later placement sees
// the node again.
func (c *Cluster) drainUntil(t float64) {
	for len(c.events) > 0 {
		b := c.events[0]
		if b.canceled {
			heap.Pop(&c.events)
			continue
		}
		if b.doneNs > t {
			return
		}
		heap.Pop(&c.events)
		c.complete(b)
	}
}

// complete retires one booking: frees its queue slot, credits the node,
// feeds the EWMA and records the job's latency.
func (c *Cluster) complete(b *booking) {
	n := b.node
	for i, p := range n.pending {
		if p == b {
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			break
		}
	}
	n.busyNs += b.svcNs
	n.jobs++
	obs := float64(b.job.Items) / b.svcNs
	n.ewmaRate = ewmaAlpha*obs + (1-ewmaAlpha)*n.ewmaRate
	c.completed++
	if b.doneNs > c.horizonNs {
		c.horizonNs = b.doneNs
	}
	wait := b.startNs - b.job.ArriveNs
	sojourn := b.doneNs - b.job.ArriveNs
	c.queueHist.Observe(wait)
	c.sojournHist.Observe(sojourn)
	if reg := c.cfg.Metrics; reg != nil {
		reg.Observe(trace.HistFleetQueueNs, wait)
		reg.Observe(trace.HistFleetJobNs, sojourn)
	}
}

// ewmaAlpha is the HGuided feedback gain: heavy enough to track a
// drifting node within a few jobs, light enough not to thrash on one
// outlier.
const ewmaAlpha = 0.25

// admit places one job at time t. Normal admissions (migrated=false) may
// draw a device-loss fault on the chosen node and may be shed when every
// node is full or lost. Migration rebookings (migrated=true) draw no
// faults and are never shed — a lost job degrades to a late job, never
// to a dropped one.
func (c *Cluster) admit(t float64, j Job, migrated bool) {
	n := c.bal.place(t, j, c)
	if n == nil {
		if !migrated {
			c.shed++
			return
		}
		n = c.emergencyNode(t, j)
	}
	if !migrated && c.cfg.DeviceLossRate > 0 {
		if kind := n.inj.Launch(t); kind == fault.DeviceLost {
			c.loseNode(n, t)
			// The triggering job still runs — reroute it like a migrant
			// (no second fault draw), after the evictees it displaced.
			c.migrated++
			c.admit(t, j, true)
			return
		}
	}
	start := t
	if n.availNs > start {
		start = n.availNs
	}
	if n.lostNs > start {
		start = n.lostNs
	}
	if migrated {
		start += MigrationPenaltyNs
	}
	svc := c.serviceNs(n, j)
	b := &booking{job: j, node: n, startNs: start, doneNs: start + svc, svcNs: svc, seq: c.seq}
	c.seq++
	n.pending = append(n.pending, b)
	n.availNs = b.doneNs
	heap.Push(&c.events, b)
}

// loseNode opens n's device-loss window at time t and evicts every
// pending booking: queued jobs rebook whole, the in-flight job abandons
// its partial service (counted as wasted node time). Evictees re-enter
// placement oldest-first so the rebooking order is deterministic.
func (c *Cluster) loseNode(n *Node, t float64) {
	c.losses++
	n.losses++
	n.lostNs = n.inj.LostUntilNs()
	evicted := n.pending
	n.pending = nil
	n.availNs = n.lostNs
	for _, b := range evicted {
		b.canceled = true
		if b.startNs < t {
			n.wastedNs += t - b.startNs
		}
	}
	for _, b := range evicted {
		c.migrated++
		c.admit(t, b.job, true)
	}
}

// emergencyNode picks the rebooking target when no node is eligible:
// the earliest predicted finish over all nodes, queue caps ignored and
// lost nodes allowed (the job waits out the loss window). Ties break to
// the lower node ID.
func (c *Cluster) emergencyNode(t float64, j Job) *Node {
	var best *Node
	bestDone := 0.0
	for _, n := range c.nodes {
		start := t
		if n.availNs > start {
			start = n.availNs
		}
		if n.lostNs > start {
			start = n.lostNs
		}
		done := start + c.serviceNs(n, j)
		if best == nil || done < bestDone {
			best, bestDone = n, done
		}
	}
	return best
}

// NodeStats is one node's per-run summary.
type NodeStats struct {
	ID       int
	Kind     NodeKind
	Jobs     int     // jobs completed on this node
	BusyNs   float64 // virtual time spent serving completed jobs
	WastedNs float64 // partial service abandoned to migration
	Losses   int     // device-loss windows opened here
	Util     float64 // BusyNs over the run horizon
}

// Result aggregates one cluster run.
type Result struct {
	Submitted  int // jobs offered to the cluster
	Completed  int // jobs that finished service
	Migrated   int // rebookings forced by node losses
	Shed       int // normal admissions rejected (all nodes full or lost)
	NodeLosses int // device-loss windows opened

	// HorizonNs is the virtual time of the last completion — the run's
	// utilization denominator.
	HorizonNs float64
	// Queue is the per-job queue-wait distribution (arrival to final
	// service start, migration penalties included).
	Queue *trace.Histogram
	// Sojourn is the per-job total-latency distribution (arrival to
	// completion).
	Sojourn *trace.Histogram
	// Nodes holds per-node summaries in node-ID order.
	Nodes []NodeStats
}

// MeanUtil is the fleet-wide mean node utilization over the run horizon.
func (r Result) MeanUtil() float64 {
	if len(r.Nodes) == 0 {
		return 0
	}
	sum := 0.0
	for _, n := range r.Nodes {
		sum += n.Util
	}
	return sum / float64(len(r.Nodes))
}

// finish assembles the Result and publishes the fleet.* counters.
func (c *Cluster) finish() Result {
	r := Result{
		Submitted:  c.submitted,
		Completed:  c.completed,
		Migrated:   c.migrated,
		Shed:       c.shed,
		NodeLosses: c.losses,
		HorizonNs:  c.horizonNs,
		Queue:      c.queueHist.Clone(),
		Sojourn:    c.sojournHist.Clone(),
	}
	var busy, wasted float64
	for _, n := range c.nodes {
		util := 0.0
		if c.horizonNs > 0 {
			util = n.busyNs / c.horizonNs
		}
		r.Nodes = append(r.Nodes, NodeStats{
			ID: n.ID, Kind: n.Kind, Jobs: n.jobs,
			BusyNs: n.busyNs, WastedNs: n.wastedNs,
			Losses: n.losses, Util: util,
		})
		busy += n.busyNs
		wasted += n.wastedNs
	}
	if reg := c.cfg.Metrics; reg != nil {
		reg.Add(trace.CtrFleetSubmitted, float64(r.Submitted))
		reg.Add(trace.CtrFleetCompleted, float64(r.Completed))
		reg.Add(trace.CtrFleetMigrated, float64(r.Migrated))
		reg.Add(trace.CtrFleetShed, float64(r.Shed))
		reg.Add(trace.CtrFleetNodeLosses, float64(r.NodeLosses))
		reg.Add(trace.CtrFleetBusyNs, busy)
		reg.Add(trace.CtrFleetWastedNs, wasted)
	}
	return r
}
