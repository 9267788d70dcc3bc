package steady

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// replanGeneralPlatform builds a small general (non-tree) platform: a
// source feeding two relays that both reach three leaves, so flows
// have real routing choices and the LP regime is exercised.
func replanGeneralPlatform(t *testing.T) (*graph.Graph, Problem) {
	t.Helper()
	g := graph.New()
	s := g.AddNode("s")
	r1 := g.AddNode("r1")
	r2 := g.AddNode("r2")
	l1 := g.AddNode("l1")
	l2 := g.AddNode("l2")
	l3 := g.AddNode("l3")
	g.AddEdge(s, r1, 1)    // 0
	g.AddEdge(s, r2, 1.25) // 1
	g.AddEdge(r1, l1, 2)   // 2
	g.AddEdge(r1, l2, 2.5) // 3
	g.AddEdge(r2, l2, 2)   // 4
	g.AddEdge(r2, l3, 1.5) // 5
	g.AddEdge(r1, r2, 0.5) // 6
	g.AddEdge(r2, l1, 3)   // 7
	p, err := NewProblem(g, s, []graph.NodeID{l1, l2, l3})
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

// coldReference solves p's current graph state on a fresh evaluator.
func coldReference(t *testing.T, p Problem) (lb, scatter *Bound) {
	t.Helper()
	ev := NewEvaluator()
	vp, err := NewProblem(p.G, p.Source, p.Targets)
	if err != nil {
		t.Fatalf("cold reference problem: %v", err)
	}
	lb, err = ev.MulticastLB(vp)
	if err != nil {
		t.Fatalf("cold MulticastLB: %v", err)
	}
	scatter, err = ev.ScatterUB(vp)
	if err != nil {
		t.Fatalf("cold ScatterUB: %v", err)
	}
	return lb, scatter
}

func assertReplanMatchesCold(t *testing.T, res *ReplanResult, p Problem, event string) {
	t.Helper()
	lb, scatter := coldReference(t, p)
	if res.LB.Infeasible() != lb.Infeasible() {
		t.Fatalf("%s: warm LB infeasible=%v, cold=%v", event, res.LB.Infeasible(), lb.Infeasible())
	}
	if !res.LB.Infeasible() {
		if d := relDiff(res.LB.Period, lb.Period); d > 1e-9 {
			t.Fatalf("%s: warm LB %.17g vs cold %.17g (rel %.3g)", event, res.LB.Period, lb.Period, d)
		}
	}
	if res.Scatter.Infeasible() != scatter.Infeasible() {
		t.Fatalf("%s: warm scatter infeasible=%v, cold=%v", event, res.Scatter.Infeasible(), scatter.Infeasible())
	}
	if !res.Scatter.Infeasible() {
		if d := relDiff(res.Scatter.Period, scatter.Period); d > 1e-9 {
			t.Fatalf("%s: warm scatter %.17g vs cold %.17g (rel %.3g)", event, res.Scatter.Period, scatter.Period, d)
		}
	}
}

func TestReplanWarmMatchesColdAcrossDeltas(t *testing.T) {
	_, p := replanGeneralPlatform(t)
	ev := NewEvaluator()
	// Baseline solve to warm the pools, then a churn sequence: degrade,
	// fail, recover, reprice.
	if _, err := ev.Replan(p, nil); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	events := []struct {
		d    graph.Delta
		tree bool
	}{
		{graph.Delta{graph.ScaleEdgeCostOp(0, 2)}, false},                          // degrade s->r1
		{graph.Delta{graph.DisableEdgeOp(6)}, false},                               // relay cross-link fails
		{graph.Delta{graph.SetEdgeCostOp(4, 1.1)}, false},                          // r2->l2 repriced
		{graph.Delta{graph.EnableEdgeOp(6), graph.ScaleEdgeCostOp(0, 0.5)}, false}, // recovery batch
		// Losing relay r1 leaves a pure star behind r2 — the survivor
		// snapshot classifies as a tree and must fast-path.
		{graph.Delta{graph.DropNodeOp(1)}, true},
		{graph.Delta{graph.RestoreNodeOp(1)}, false}, // and returns
	}
	for i, e := range events {
		res, err := ev.Replan(p, e.d)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if res.TreeRouted != e.tree {
			t.Fatalf("event %d: TreeRouted=%v, want %v", i, res.TreeRouted, e.tree)
		}
		if res.Fingerprint != Fingerprint(p.G) {
			t.Fatalf("event %d: stale fingerprint", i)
		}
		assertReplanMatchesCold(t, res, p, fmt.Sprintf("event %d", i))
	}
}

func TestReplanCrossesTreeBoundary(t *testing.T) {
	// A tree platform plus one chord that is disabled at first: enabling
	// it breaks tree-ness (LP regime), disabling it restores the
	// combinatorial fast path. Replan must re-dispatch on both
	// crossings and agree with a cold solve each time.
	g := graph.New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(s, a, 1)   // 0
	g.AddEdge(a, b, 2)   // 1
	g.AddEdge(s, c, 1.5) // 2
	chord := g.AddEdge(c, b, 0.75)
	g.DisableEdge(chord)
	p, err := NewProblem(g, s, []graph.NodeID{b, c})
	if err != nil {
		t.Fatal(err)
	}

	ev := NewEvaluator()
	base, err := ev.Replan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !base.TreeRouted {
		t.Fatal("baseline tree platform not tree-routed")
	}
	assertReplanMatchesCold(t, base, p, "baseline")

	broke, err := ev.Replan(p, graph.Delta{graph.EnableEdgeOp(chord)})
	if err != nil {
		t.Fatal(err)
	}
	if broke.TreeRouted {
		t.Fatal("chord-enabled platform still tree-routed")
	}
	assertReplanMatchesCold(t, broke, p, "tree->general")
	if broke.LB.Period > base.LB.Period+1e-12 {
		t.Fatalf("extra chord made the period worse: %.17g > %.17g", broke.LB.Period, base.LB.Period)
	}

	healed, err := ev.Replan(p, graph.Delta{graph.DisableEdgeOp(chord)})
	if err != nil {
		t.Fatal(err)
	}
	if !healed.TreeRouted {
		t.Fatal("chord-disabled platform not re-dispatched to the tree path")
	}
	assertReplanMatchesCold(t, healed, p, "general->tree")
	if healed.LB.Period != base.LB.Period {
		t.Fatalf("returning to the baseline snapshot changed the period: %.17g vs %.17g",
			healed.LB.Period, base.LB.Period)
	}
}

func TestReplanRollsBackOnError(t *testing.T) {
	_, p := replanGeneralPlatform(t)
	ev := NewEvaluator()
	before := Fingerprint(p.G)

	// Invalid op: out-of-range edge.
	if _, err := ev.Replan(p, graph.Delta{graph.DisableEdgeOp(99)}); err == nil {
		t.Fatal("Replan accepted out-of-range edge")
	}
	if Fingerprint(p.G) != before {
		t.Fatal("failed Replan mutated the graph")
	}

	// Valid delta that invalidates the problem: dropping a target. The
	// applied delta must be rolled back.
	target := p.Targets[0]
	if _, err := ev.Replan(p, graph.Delta{graph.DropNodeOp(target)}); err == nil {
		t.Fatal("Replan accepted a delta that dropped a target")
	}
	if !p.G.Active(target) || Fingerprint(p.G) != before {
		t.Fatal("problem-invalidating delta was not rolled back")
	}
}

func TestReplanStatsAreIncremental(t *testing.T) {
	_, p := replanGeneralPlatform(t)
	ev := NewEvaluator()
	first, err := ev.Replan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Evaluations != 2 || first.Stats.Solves == 0 {
		t.Fatalf("baseline stats not incremental: %+v", first.Stats)
	}
	// Re-evaluating the unchanged platform answers from the result
	// cache: no new solves.
	again, err := ev.Replan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Solves != 0 || again.Stats.CacheHits != 2 {
		t.Fatalf("unchanged replan did not hit the cache: %+v", again.Stats)
	}
}
