package analyze

import (
	"go/types"
	"strings"
)

// Obsonly statically proves the observation-only invariant: the
// tracer, profiler, report generators, and stream consumers read
// simulation state but never write it. Dynamically this is what the
// byte-identity tests check (a run with tracing on matches a run with
// tracing off); statically it becomes: no function reachable from an
// observer entry point may store into a machine/engine/pmem/cache/
// txheap type, nor mutate module package-level state (an observer that
// updates a global gives two observations of the same run different
// results).
//
// Entry points (roots):
//   - every function declared in an internal/trace, internal/trace/stream,
//     internal/profile, or internal/report package,
//   - every Consume method taking the module's trace.Event (the stream
//     consumer interface, resolved structurally so out-of-package
//     consumers are covered).
//
// Reachability runs over the shared callgraph (interface calls expanded
// to module implementations), so a mutation behind two hops of
// indirection is still caught, and the diagnostic names the chain.
// Intentional host-side state — the double-buffered sink's buffers,
// telemetry counters — is waived line-by-line with //slpmt:obsonly-ok:.
var Obsonly = &ModuleAnalyzer{
	Name: "obsonly",
	Doc:  "functions reachable from trace/profile/report/stream-consumer entry points must not mutate simulation or package-level state",
	Run:  runObsonly,
}

// observerPkgSuffixes are the packages whose every function is an
// observer entry point.
var observerPkgSuffixes = []string{
	"internal/trace",
	"internal/trace/stream",
	"internal/profile",
	"internal/report",
}

func isObserverPkg(path string) bool {
	for _, s := range observerPkgSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func runObsonly(pass *ModulePass) {
	m := pass.Module
	eff := m.Effects()
	g := eff.Graph

	var roots []*types.Func
	for fobj, fi := range g.Funcs { //slpmt:determinism-ok: root order does not affect the reachable set, and diagnostics are position-sorted
		switch {
		case isObserverPkg(fi.Pkg.Path):
			roots = append(roots, fobj)
		case fobj.Name() == "Consume" && consumesTraceEvent(fobj):
			roots = append(roots, fobj)
		}
	}
	if len(roots) == 0 {
		return
	}

	reached, pred := g.ReachableFrom(roots)
	for fobj := range reached { //slpmt:determinism-ok: diagnostics are position-sorted by the driver
		fe := eff.Funcs[fobj]
		if fe == nil {
			continue
		}
		for _, w := range fe.SimWrites {
			pass.Reportf(w.Pos, "observer code writes %s: observation must be side-effect-free (reached via %s)", w.Desc, Chain(pred, fobj))
		}
		for _, w := range fe.GlobalWrites {
			pass.Reportf(w.Pos, "observer code mutates package-level state %s: a second observation of the same run would differ (reached via %s)", w.Desc, Chain(pred, fobj))
		}
	}
}

// consumesTraceEvent reports whether f's signature takes exactly one
// parameter of the module's trace.Event type — the structural signature
// of the stream consumer interface.
func consumesTraceEvent(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return false
	}
	named := namedOf(sig.Params().At(0).Type())
	if named == nil || named.Obj().Name() != "Event" || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return p == "internal/trace" || strings.HasSuffix(p, "/internal/trace")
}
