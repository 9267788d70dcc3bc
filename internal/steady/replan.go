package steady

import (
	"fmt"

	"repro/internal/graph"
)

// Incremental replanning: an online controller built on the library
// turns platform mutation events into updated bounds without
// rebuilding an evaluator per event. Replan applies a graph.Delta in
// place and re-evaluates on the same evaluator, so everything the
// previous solves learned stays warm:
//
//   - The per-source cut pools seed the Multicast-LB cutting plane
//     with the incumbent cuts of the previous version (BFS-revalidated
//     against the mutated graph), so the master LP typically restarts
//     from the previous optimal constraint set and re-solves in one or
//     two separation rounds instead of re-peeling the whole cut
//     sequence — that pooled constraint set *is* the previous optimal
//     basis in cutting-plane terms, and within the loop every re-solve
//     warm-starts from the prior round's simplex basis (SolveFrom).
//   - The path pools replay the previous version's multi-source
//     columns the same way.
//   - The shared lp.Workspace keeps its factorisation scratch.
//
// Classification re-dispatch is automatic: every delta op bumps the
// graph's mutation stamp, which invalidates the evaluator's memoised
// classifier verdict, so a delta that breaks tree-ness falls back to
// the LP on the next evaluation and a delta that creates tree-ness
// routes combinatorially — no special-casing in Replan itself. A warm
// replan therefore answers tree-classified versions bit-identically to
// a cold solve; on general platforms warm and cold agree to LP
// optimality (~1e-9 — fuzz-pinned by FuzzReplanVsCold), which is why
// the serving layer's byte-determinism contract is carried by the
// canonical cold path instead (DESIGN.md §14).

// ReplanResult is the outcome of one incremental replan event.
type ReplanResult struct {
	// LB is the Multicast-LB bound of the mutated platform.
	LB *Bound
	// Scatter is the Multicast-UB scatter bound of the mutated platform.
	Scatter *Bound
	// Stats is the solver effort this event added on top of the
	// evaluator's prior cumulative stats — the warm-vs-cold comparison
	// currency (simplex iterations, rounds, warm solves).
	Stats SolveStats
	// TreeRouted reports whether the mutated platform classified as a
	// tree rooted at the source, i.e. both bounds were answered
	// combinatorially without touching the LP.
	TreeRouted bool
	// Fingerprint is the mutated platform's content fingerprint.
	Fingerprint uint64
}

// Replan applies delta to p.G in place — permanently, unlike the
// trial ops (DropNodeBroadcast etc.), which restore the graph before
// returning — and re-evaluates the multicast bounds warm on e. It
// revalidates the problem, since the delta may deactivate the source
// or a target, and reports the event's incremental solver effort. An
// empty delta re-evaluates the current graph.
//
// On any error (an invalid delta, or one that invalidates the
// problem) the delta is rolled back through its undo, which restores
// state ops exactly; nodes and edges added by structural ops stay in
// the graph, deactivated or disabled (see graph.Delta).
func (e *Evaluator) Replan(p Problem, delta graph.Delta) (*ReplanResult, error) {
	undo, err := delta.Apply(p.G)
	if err != nil {
		return nil, fmt.Errorf("steady: replan: %w", err)
	}
	fail := func(err error) (*ReplanResult, error) {
		undo.Apply(p.G)
		return nil, err
	}
	vp, err := NewProblem(p.G, p.Source, p.Targets)
	if err != nil {
		return fail(fmt.Errorf("steady: replan: %w", err))
	}
	before := e.Stats()
	lb, err := e.MulticastLB(vp)
	if err != nil {
		return fail(err)
	}
	scatter, err := e.ScatterUB(vp)
	if err != nil {
		return fail(err)
	}
	return &ReplanResult{
		LB:          lb,
		Scatter:     scatter,
		Stats:       e.Stats().Delta(before),
		TreeRouted:  !e.noFastPath && e.TreeClass(vp.G, vp.Source) == graph.ClassTree,
		Fingerprint: Fingerprint(vp.G),
	}, nil
}
