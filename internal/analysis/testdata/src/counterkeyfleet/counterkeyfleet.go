// Package counterkeyfleet is the fixture for the fleet.* registry
// namespace: the cluster simulator's counters and hist.fleet.*
// histograms must pass the counterkey analyzer like any established
// namespace, and near-miss spellings must still be rejected.
package counterkeyfleet

import (
	"hetbench/internal/analysis/testdata/src/trace"
)

// Canonical fleet names, as in the real registry.
const (
	ctrFleetSubmitted = "fleet.jobs.submitted"
	ctrFleetBusyNs    = "fleet.node.busy.ns"
	histFleetQueueNs  = "hist.fleet.queue.ns"
	histFleetJobNs    = "hist.fleet.job.ns"
)

func good(r *trace.Registry, node string) {
	r.Add(ctrFleetSubmitted, 1)
	r.Add(ctrFleetBusyNs, 1e6)
	r.Add("fleet.jobs.migrated", 1)
	r.Add("fleet."+node, 1)
	r.Observe(histFleetQueueNs, 1e3)
	r.Observe(histFleetJobNs, 2e3)
	r.Observe("hist.fleet."+node, 3e3)
}

func bad(r *trace.Registry, name string, i int) {
	r.Add("flotilla.jobs", 1)        // want `counter name "flotilla.jobs" is outside the established namespaces`
	r.Add("Fleet.Jobs", 1)           // want `counter name "Fleet.Jobs" is not lowercase dotted`
	r.Add("fleetwide."+name, 1)      // want `counter prefix "fleetwide." is outside the established namespaces`
	r.Observe("fleet.queue.ns", 1)   // want `histogram name "fleet.queue.ns" must start with "hist."`
	r.Observe("hist.Fleet.Queue", 1) // want `histogram name "hist.Fleet.Queue" is not lowercase dotted`
	r.Observe("fleet."+name, 1)      // want `histogram prefix "fleet." must start with "hist."`
}
