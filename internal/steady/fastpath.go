package steady

import (
	"math"

	"repro/internal/graph"
	"repro/internal/tree"
)

// The tree-topology fast path (DESIGN.md Section 12). When the active
// platform classifies as a tree rooted at the multicast source, every
// source->target flow is forced onto the unique tree path, so the
// Multicast-LB and Multicast-UB optima are port-occupation scans over
// the Steiner subtree — no simplex, no cutting planes, O(V + E) per
// bound. The evaluator consults the classifier on every non-cached
// bound evaluation; because the trial ops (DropNodeBroadcast,
// AddNodeBroadcast), the what-if scenarios (a graph.Delta applied to
// the scenario's own platform clone) and Replan all mutate the graph
// before re-evaluating, a platform whose edge-disable mask turns it
// into a tree picks the fast path up automatically — the graph's
// mutation stamp invalidates the classifier memo and the next
// classification sees the tree.
//
// Dispatch policy: the classifier errs toward ClassGeneral (parallel
// edges, cross links, anything structurally ambiguous), and
// ClassGeneral always takes the LP, which is correct on every
// platform. The fast path is therefore an optimisation with an exact
// mathematical contract — on ClassTree platforms its period IS the LP
// optimum — verified to <= 1e-9 relative by the cross-validation
// tests and the FuzzTreeVsLP target.

// SetFastPath toggles the tree-topology combinatorial fast path
// (enabled by default). Disabling it forces every bound evaluation
// through the LP — the reference configuration the cross-validation
// tests, the forced-LP what-if runs and the benchmark baselines use.
func (e *Evaluator) SetFastPath(on bool) { e.noFastPath = !on }

// FastPath reports whether the tree fast path is enabled.
func (e *Evaluator) FastPath() bool { return !e.noFastPath }

// treeBound answers a bound evaluation combinatorially when the
// platform classifies as a tree rooted at p.Source. The boolean
// reports whether the fast path applied; false means the caller must
// run the LP. scatter selects Multicast-UB semantics (per-target
// loads) over Multicast-LB semantics (optimistic shared loads).
func (e *Evaluator) treeBound(p Problem, scatter bool) (*Bound, bool) {
	if e.noFastPath {
		return nil, false
	}
	view := e.classifier.Classify(p.G, p.Source)
	if !view.IsTree() {
		e.stats.FastPathMisses++
		return nil, false
	}
	e.stats.FastPathHits++
	load := make([]float64, p.G.NumEdges())
	period := tree.SteadyPeriod(p.G, view, p.Targets, scatter, load, &e.rateSc)
	if math.IsInf(period, 1) {
		return infeasibleBound(), true
	}
	return &Bound{Period: period, EdgeLoad: load}, true
}

// TreeClass classifies the active platform rooted at source through
// the evaluator's memoised classifier — the same view the dispatch
// uses, surfaced for callers that want to predict or report routing
// (exp sweeps, tests).
func (e *Evaluator) TreeClass(g *graph.Graph, source graph.NodeID) graph.Class {
	return e.classifier.Classify(g, source).Class
}
