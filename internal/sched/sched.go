// Package sched is the co-execution scheduler: it splits one kernel
// launch's iteration space across the host CPU and the accelerator of a
// sim.Machine, in the spirit of EngineCL and Maat's CPU+GPU partitioners.
// Three policies are provided:
//
//   - Static: one chunk per device, sized by a fixed host fraction or, by
//     default, by the ratio of the two devices' roofline rates on this
//     exact kernel (each device's timing model evaluated on the full
//     launch — the same roofline the rest of the simulator runs on).
//   - Dynamic: the launch is carved into 12 equal wavefront-aligned
//     chunks pulled from a shared queue; each chunk goes to whichever
//     device's virtual command queue finishes it earliest, so a slow
//     device steals proportionally less work.
//   - HGuided: like Dynamic but chunks shrink as the queue drains
//     (half the device's proportional share of the remainder, floored at
//     one accelerator wavefront), giving big low-overhead chunks early
//     and fine-grained load balancing at the tail.
//
// The scheduler is fault-aware: when the machine's injector has the
// accelerator inside a device-loss window at the moment a chunk would be
// issued, that chunk and the rest of the pending queue migrate to the
// host instead of triggering the runtimes' whole-launch fallback path.
//
// All three policies are deterministic: they draw no randomness, so a run
// is bit-reproducible under any -seed (no policy reads Config.Seed).
package sched

import (
	"fmt"
	"sync"

	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// Policy selects the partitioning strategy.
type Policy int

// Policies.
const (
	Static Policy = iota
	Dynamic
	HGuided
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case HGuided:
		return "hguided"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes a Scheduler. The zero value is a valid Static
// scheduler with the roofline-derived fraction.
type Config struct {
	Policy Policy

	// HostFraction fixes the static policy's host share in (0,1]. Zero or
	// negative means "derive from the devices' roofline rates". Ignored by
	// the other policies.
	HostFraction float64

	// Seed is read by no policy: the three shipped policies are
	// deterministic and never draw from it. It stays only because the
	// benchmark driver's traced run (_perfbench/traced.go) still sets it;
	// it goes when that driver next changes.
	Seed int64
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if c.HostFraction > 1 {
		return fmt.Errorf("sched: HostFraction %g must be at most 1", c.HostFraction)
	}
	return nil
}

// dynamicChunks is the dynamic policy's chunk count: the launch is cut
// into ceil(items/dynamicChunks) wavefront-aligned pieces, enough for the
// fast device to steal at a fine grain, few enough that per-chunk
// bookkeeping stays negligible.
const dynamicChunks = 12

// Shares normalizes device throughput rates into proportional work
// shares summing to 1 — the static-partitioning rule shared by every
// placement layer in the repo: the coexec scheduler's two-device split
// below and internal/fleet's cluster-granularity static balancer. A
// non-positive or NaN rate earns a zero share; if no rate is positive
// the shares are uniform, so a caller can always treat the result as a
// probability vector. The computation is pure float arithmetic in slice
// order, hence bit-deterministic.
func Shares(rates []float64) []float64 {
	out := make([]float64, len(rates))
	sum := 0.0
	for _, r := range rates {
		if r > 0 { // NaN-safe: NaN fails the comparison
			sum += r
		}
	}
	if sum <= 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i, r := range rates {
		if r > 0 {
			out[i] = r / sum
		}
	}
	return out
}

// Stats tallies scheduling decisions over a Scheduler's lifetime.
type Stats struct {
	Splits     int     // launches split across the queue pair
	Chunks     int     // chunks booked on either device
	Migrated   int     // chunks rerouted to the host by a device-loss window
	HostItems  int64   // work items executed on the host CPU
	AccelItems int64   // work items executed on the accelerator
	HostNs     float64 // host queue busy time
	AccelNs    float64 // accelerator queue busy time
}

// HostShare is the fraction of work items the host executed.
func (s Stats) HostShare() float64 {
	total := s.HostItems + s.AccelItems
	if total == 0 {
		return 0
	}
	return float64(s.HostItems) / float64(total)
}

// Scheduler implements sim.CoexecPlanner. One scheduler may serve many
// launches (and machines); Stats accumulate across all of them.
type Scheduler struct {
	cfg Config

	mu    sync.Mutex
	stats Stats
}

// New builds a scheduler, panicking on an invalid config (a programming
// error, matching the substrate constructors).
func New(cfg Config) *Scheduler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Scheduler{cfg: cfg}
}

// Stats returns the lifetime decision tallies.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// chunk is one scheduling decision: n items on target t.
type chunk struct {
	t        sim.Target
	n        int
	migrated bool
}

// LaunchSplit partitions one launch across the machine's queue pair and
// returns the merged timing (TimeNs is the makespan of the two queues).
func (s *Scheduler) LaunchSplit(m *sim.Machine, l sim.CoexecLaunch) timing.Result {
	items := l.Accel.Items
	if items <= 0 {
		panic(fmt.Sprintf("sched: split launch %q with %d items", l.Name, items))
	}
	q := m.BeginQueues()

	// Roofline rates for this exact kernel: each device's timing model on
	// the full launch. These drive the static fraction and the HGuided
	// proportional shares.
	hostNs := m.HostModel().Kernel(l.Host).TimeNs
	accelNs := m.AcceleratorModel().Kernel(l.Accel).TimeNs
	hostRate := float64(items) / hostNs
	accelRate := float64(items) / accelNs

	// run books one decided chunk on the queue pair and tallies it. The
	// dynamic policies interleave deciding and booking because each
	// decision depends on the queue state the previous chunk left behind.
	var st Stats
	st.Splits = 1
	bound := map[string]float64{}
	var dram float64
	tracer := m.Tracer()
	run := func(c chunk) {
		cost := chunkCost(l.Accel, c.n)
		if c.t == sim.OnHost {
			cost = chunkCost(l.Host, c.n)
		}
		r := q.RunChunk(c.t, l.Name, cost)
		if tracer != nil {
			tracer.Metrics().Observe(trace.HistChunkNs, r.TimeNs)
		}
		st.Chunks++
		dram += r.DRAMBytes
		bound[r.Bound] += r.TimeNs
		if c.t == sim.OnHost {
			st.HostItems += int64(c.n)
		} else {
			st.AccelItems += int64(c.n)
		}
		if c.migrated {
			st.Migrated++
		}
	}
	switch s.cfg.Policy {
	case Static:
		s.runStatic(m, q, items, hostRate, accelRate, run)
	case Dynamic:
		s.runDynamic(m, q, l, items, run)
	case HGuided:
		s.runHGuided(m, q, items, hostRate, accelRate, run)
	default:
		panic(fmt.Sprintf("sched: unknown policy %v", s.cfg.Policy))
	}
	st.HostNs = q.AvailNs(sim.OnHost)
	st.AccelNs = q.AvailNs(sim.OnAccelerator)
	wall := q.Merge()

	s.mu.Lock()
	s.stats.Splits += st.Splits
	s.stats.Chunks += st.Chunks
	s.stats.Migrated += st.Migrated
	s.stats.HostItems += st.HostItems
	s.stats.AccelItems += st.AccelItems
	s.stats.HostNs += st.HostNs
	s.stats.AccelNs += st.AccelNs
	s.mu.Unlock()

	if t := tracer; t != nil {
		reg := t.Metrics()
		reg.Add(trace.CtrSchedSplits, float64(st.Splits))
		imb := st.HostNs - st.AccelNs
		if imb < 0 {
			imb = -imb
		}
		reg.Add(trace.CtrSchedImbalanceNs, imb)
		reg.Add(trace.CtrSchedChunks, float64(st.Chunks))
		reg.Add(trace.CtrSchedHostItems, float64(st.HostItems))
		reg.Add(trace.CtrSchedAccelItems, float64(st.AccelItems))
		reg.Add(trace.CtrSchedHostNs, st.HostNs)
		reg.Add(trace.CtrSchedAccelNs, st.AccelNs)
		reg.Add(trace.CtrSchedMigrated, float64(st.Migrated))
	}

	// The merged result: the makespan, the dominant limiting resource and
	// the combined DRAM traffic of all chunks.
	major, majorNs := "mem", 0.0
	for b, ns := range bound {
		if ns > majorNs {
			major, majorNs = b, ns
		}
	}
	return timing.Result{TimeNs: wall, DRAMBytes: dram, Bound: major}
}

// runStatic carves one chunk per device with the host taking either the
// configured fraction or its roofline-proportional share. The host chunk
// snaps to the nearest wavefront multiple so at most the accelerator's
// chunk carries a partial wavefront, matching the dynamic policies'
// alignment guarantee.
func (s *Scheduler) runStatic(m *sim.Machine, q *sim.QueuePair, items int, hostRate, accelRate float64, run func(chunk)) {
	frac := s.cfg.HostFraction
	if frac <= 0 {
		frac = Shares([]float64{hostRate, accelRate})[0]
	}
	hostItems := int(frac*float64(items) + 0.5)
	if wf := m.Accelerator().WavefrontSize; wf > 1 && items >= wf {
		hostItems = (hostItems + wf/2) / wf * wf
	}
	if hostItems > items {
		hostItems = items
	}
	accelItems := items - hostItems
	if accelItems > 0 && accelLost(m, q) {
		// The accelerator is inside a loss window at issue time: its chunk
		// migrates to the host rather than bouncing through the runtimes'
		// retry/fallback machinery.
		run(chunk{t: sim.OnHost, n: accelItems, migrated: true})
	} else if accelItems > 0 {
		run(chunk{t: sim.OnAccelerator, n: accelItems})
	}
	if hostItems > 0 {
		run(chunk{t: sim.OnHost, n: hostItems})
	}
}

// runDynamic carves the launch into equal wavefront-aligned chunks and
// greedily assigns each to the device whose queue finishes it earliest —
// work-stealing between two in-order virtual command queues, resolved at
// plan time because the simulated queues are clairvoyant about duration.
func (s *Scheduler) runDynamic(m *sim.Machine, q *sim.QueuePair, l sim.CoexecLaunch, items int, run func(chunk)) {
	wf := m.Accelerator().WavefrontSize
	size := roundUp((items+dynamicChunks-1)/dynamicChunks, wf)
	for remaining := items; remaining > 0; {
		n := size
		if n > remaining {
			n = remaining
		}
		c := chunk{t: sim.OnAccelerator, n: n}
		if accelLost(m, q) {
			c.t, c.migrated = sim.OnHost, true
		} else {
			hFin := q.AvailNs(sim.OnHost) + q.ChunkTimeNs(sim.OnHost, chunkCost(l.Host, n))
			aFin := q.AvailNs(sim.OnAccelerator) + q.ChunkTimeNs(sim.OnAccelerator, chunkCost(l.Accel, n))
			if hFin < aFin {
				c.t = sim.OnHost
			}
		}
		run(c)
		remaining -= n
	}
}

// runHGuided assigns shrinking chunks: whenever a device frees up it
// takes half its rate-proportional share of the remaining items, floored
// at one accelerator wavefront — coarse chunks early (low bookkeeping),
// fine chunks at the tail (low imbalance).
func (s *Scheduler) runHGuided(m *sim.Machine, q *sim.QueuePair, items int, hostRate, accelRate float64, run func(chunk)) {
	wf := m.Accelerator().WavefrontSize
	shares := Shares([]float64{hostRate, accelRate})
	share := map[sim.Target]float64{
		sim.OnHost:        shares[0],
		sim.OnAccelerator: shares[1],
	}
	for remaining := items; remaining > 0; {
		c := chunk{t: sim.OnAccelerator}
		if accelLost(m, q) {
			c.t, c.migrated = sim.OnHost, true
		} else if q.AvailNs(sim.OnHost) < q.AvailNs(sim.OnAccelerator) {
			c.t = sim.OnHost
		}
		n := roundUp(int(float64(remaining)*share[c.t]/2), wf)
		if n < wf {
			n = wf
		}
		if n > remaining {
			n = remaining
		}
		c.n = n
		run(c)
		remaining -= n
	}
}

// accelLost reports whether the machine's fault injector has the
// accelerator inside a device-loss window at the instant its queue would
// issue the next chunk.
func accelLost(m *sim.Machine, q *sim.QueuePair) bool {
	inj := m.FaultInjector()
	if inj == nil {
		return false
	}
	return inj.LostUntilNs() > q.StartNs()+q.AvailNs(sim.OnAccelerator)
}

// chunkCost shrinks a full-launch cost to an n-item chunk; every other
// field is a per-item average, so the chunk's cost is exact.
func chunkCost(full timing.KernelCost, n int) timing.KernelCost {
	c := full
	c.Items = n
	return c
}

// roundUp rounds n up to a multiple of the wavefront size.
func roundUp(n, wf int) int {
	if wf <= 1 {
		return n
	}
	return (n + wf - 1) / wf * wf
}
