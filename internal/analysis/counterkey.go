package analysis

import (
	"go/ast"
	"go/constant"
	"regexp"
	"sort"
	"strings"
)

// CounterKey enforces the counter-registry naming discipline: every name
// passed to trace.Registry.Add must be a lowercase dotted
// string constant whose first segment is one of the established
// namespaces, and every name passed to trace.Registry.Observe must be a
// lowercase dotted string constant in the "hist." namespace (see the
// Hist* constants). Names assembled at runtime — fmt.Sprintf on the
// launch hot path, string variables — defeat grep, fragment dashboards,
// and spend allocations inside the simulator's innermost loop. The one
// sanctioned dynamic form is a constant dotted prefix concatenated with
// a kind ("fault." + string(kind)), which the machine's fault path uses.
var CounterKey = &Analyzer{
	Name:     "counterkey",
	Doc:      "requires trace counter and histogram names to be lowercase dotted constants in the established namespaces",
	Severity: SeverityError,
	Run:      runCounterKey,
}

// counterNamespaces are the registry's established top-level segments
// (see the Ctr* constants in internal/trace/metrics.go). A new subsystem
// earns its namespace by adding it here in the same PR that introduces
// its counters.
var counterNamespaces = map[string]bool{
	"kernel": true, "transfer": true, "dram": true, "llc": true,
	"lds": true, "flops": true, "instrs": true, "energy": true,
	"fault": true, "resilience": true, "sched": true, "service": true,
	"fleet": true, "workload": true,
}

// counterNameRE admits lowercase dotted names; hyphens may join words
// inside a segment ("fault.transfer-corrupt") but never lead or trail.
var counterNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9]+(-[a-z0-9]+)*)*$`)

func runCounterKey(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(info, call)
			if len(call.Args) >= 1 && isMethodOn(obj, "Registry", "Observe") {
				checkHistName(p, call.Args[0])
				return true
			}
			if !isMethodOn(obj, "Registry", "Add") || len(call.Args) < 1 {
				return true
			}
			checkCounterName(p, call.Args[0])
			return true
		})
	}
}

// checkCounterName validates one name argument.
func checkCounterName(p *Pass, arg ast.Expr) {
	info := p.Pkg.Info
	if tv, ok := info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		name := constant.StringVal(tv.Value)
		if !counterNameRE.MatchString(name) {
			p.Reportf(arg.Pos(), "counter name %q is not lowercase dotted (want e.g. %q)", name, "sched.host.ns")
			return
		}
		if seg, _, _ := strings.Cut(name, "."); !counterNamespaces[seg] {
			p.Reportf(arg.Pos(), "counter name %q is outside the established namespaces (%s)", name, namespaceList())
		}
		return
	}
	// Non-constant: the only sanctioned form is <constant dotted
	// prefix> + <dynamic suffix>, e.g. trace.CtrFaultPrefix + string(kind).
	if bin, ok := ast.Unparen(arg).(*ast.BinaryExpr); ok && bin.Op.String() == "+" {
		if tv, ok := info.Types[bin.X]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			prefix := constant.StringVal(tv.Value)
			base, hasDot := strings.CutSuffix(prefix, ".")
			if hasDot && counterNameRE.MatchString(base) {
				if seg, _, _ := strings.Cut(base, "."); counterNamespaces[seg] {
					return
				}
				p.Reportf(arg.Pos(), "counter prefix %q is outside the established namespaces (%s)", prefix, namespaceList())
				return
			}
			p.Reportf(arg.Pos(), "counter prefix %q is not a lowercase dotted namespace prefix ending in %q", prefix, ".")
			return
		}
	}
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
		if isPkgFunc(calleeObj(info, call), "fmt", "Sprintf", "Sprint", "Sprintln") {
			p.Reportf(arg.Pos(), "counter name built with fmt.%s on the hot path; use a dotted string constant (or a constant prefix + suffix)", calleeObj(info, call).Name())
			return
		}
	}
	p.Reportf(arg.Pos(), "counter name is not a string constant; registry keys must be greppable dotted constants")
}

// checkHistName validates one Observe name argument: histograms live in
// their own "hist." namespace, distinct from the counter namespaces, so
// a distribution can never shadow a counter on a dashboard.
func checkHistName(p *Pass, arg ast.Expr) {
	info := p.Pkg.Info
	if tv, ok := info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		name := constant.StringVal(tv.Value)
		if !counterNameRE.MatchString(name) {
			p.Reportf(arg.Pos(), "histogram name %q is not lowercase dotted (want e.g. %q)", name, "hist.kernel.ns")
			return
		}
		if !strings.HasPrefix(name, "hist.") {
			p.Reportf(arg.Pos(), "histogram name %q must start with %q (see the trace.Hist* constants)", name, "hist.")
		}
		return
	}
	// Non-constant: the sanctioned form mirrors the counter rule — a
	// constant dotted "hist." prefix plus a dynamic suffix.
	if bin, ok := ast.Unparen(arg).(*ast.BinaryExpr); ok && bin.Op.String() == "+" {
		if tv, ok := info.Types[bin.X]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			prefix := constant.StringVal(tv.Value)
			base, hasDot := strings.CutSuffix(prefix, ".")
			if hasDot && counterNameRE.MatchString(base) {
				if base == "hist" || strings.HasPrefix(base, "hist.") {
					return
				}
				p.Reportf(arg.Pos(), "histogram prefix %q must start with %q", prefix, "hist.")
				return
			}
			p.Reportf(arg.Pos(), "histogram prefix %q is not a lowercase dotted prefix ending in %q", prefix, ".")
			return
		}
	}
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
		if isPkgFunc(calleeObj(info, call), "fmt", "Sprintf", "Sprint", "Sprintln") {
			p.Reportf(arg.Pos(), "histogram name built with fmt.%s on the hot path; use a dotted string constant (or a constant prefix + suffix)", calleeObj(info, call).Name())
			return
		}
	}
	p.Reportf(arg.Pos(), "histogram name is not a string constant; registry keys must be greppable dotted constants")
}

// namespaceList renders the allowed namespaces for diagnostics.
func namespaceList() string {
	names := make([]string, 0, len(counterNamespaces))
	for n := range counterNamespaces {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
