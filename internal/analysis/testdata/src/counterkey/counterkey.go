// Package counterkey is the fixture for hetlint's counter-naming
// analyzer: registry keys must be lowercase dotted constants inside the
// established namespaces; the one dynamic form is constant-prefix+suffix.
package counterkey

import (
	"fmt"

	"hetbench/internal/analysis/testdata/src/fault"
	"hetbench/internal/analysis/testdata/src/trace"
)

const ctrSchedSteal = "sched.steal-count"

func good(r *trace.Registry, kind fault.Kind) {
	r.Add(trace.CtrKernelNs, 1)
	r.Add(ctrSchedSteal, 1)
	r.Add(trace.CtrFaultPrefix+string(kind), 1)
}

func bad(r *trace.Registry, name string, i int) {
	r.Add(fmt.Sprintf("kernel.%d.ns", i), 1) // want `counter name built with fmt.Sprintf on the hot path`
	r.Add("Kernel.NS", 1)                    // want `counter name "Kernel.NS" is not lowercase dotted`
	r.Add("widget.count", 1)                 // want `counter name "widget.count" is outside the established namespaces`
	r.Add(name, 1)                           // want `counter name is not a string constant`
	r.Add("widget."+name, 1)                 // want `counter prefix "widget." is outside the established namespaces`
	r.Add("kernel"+name, 1)                  // want `counter prefix "kernel" is not a lowercase dotted namespace prefix`
}

// allowedLegacy carries a suppression: no finding, directive used.
func allowedLegacy(r *trace.Registry) {
	r.Add("legacy_name", 1) //hetlint:allow counterkey fixture exercises the suppression path
}
