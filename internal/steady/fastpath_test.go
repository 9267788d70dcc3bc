package steady

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randomTree grows a uniformly random recursive tree: node i attaches
// to a uniform earlier node. bidir adds full-duplex links; otherwise
// the arcs point away from the root only.
func randomTree(r *rand.Rand, n int, bidir bool) (*graph.Graph, []graph.NodeID) {
	g := graph.New()
	ids := g.AddNodes("n", n)
	for i := 1; i < n; i++ {
		p := ids[r.Intn(i)]
		cost := 0.25 + r.Float64()*3.75
		if bidir {
			g.AddLink(p, ids[i], cost)
		} else {
			g.AddEdge(p, ids[i], cost)
		}
	}
	return g, ids
}

// randomTargets picks a non-empty subset of the non-source nodes.
func randomTargets(r *rand.Rand, ids []graph.NodeID) []graph.NodeID {
	var ts []graph.NodeID
	for _, v := range ids[1:] {
		if r.Intn(2) == 0 {
			ts = append(ts, v)
		}
	}
	if len(ts) == 0 {
		ts = append(ts, ids[1+r.Intn(len(ids)-1)])
	}
	return ts
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// requireAgreement compares a fast-path bound against the forced-LP
// reference on the same problem.
func requireAgreement(t *testing.T, what string, fast, ref *Bound, tol float64) {
	t.Helper()
	if fast.Infeasible() != ref.Infeasible() {
		t.Fatalf("%s: fast path infeasible=%v, LP infeasible=%v", what, fast.Infeasible(), ref.Infeasible())
	}
	if fast.Infeasible() {
		return
	}
	if d := relDiff(fast.Period, ref.Period); d > tol {
		t.Fatalf("%s: fast period %.17g vs LP %.17g (rel diff %.3g > %.1g)",
			what, fast.Period, ref.Period, d, tol)
	}
}

// lpEvaluator returns an evaluator with the fast path disabled — the
// reference configuration every cross-validation below compares
// against.
func lpEvaluator() *Evaluator {
	ev := NewEvaluator()
	ev.SetFastPath(false)
	return ev
}

func TestTreeFastPathMatchesLP(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	evFast := NewEvaluator()
	evLP := lpEvaluator()
	trees := 0
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(22)
		g, ids := randomTree(r, n, trial%2 == 0)
		if evFast.TreeClass(g, ids[0]) != graph.ClassTree {
			t.Fatalf("trial %d: random tree did not classify as tree", trial)
		}
		trees++
		p, err := NewProblem(g, ids[0], randomTargets(r, ids))
		if err != nil {
			t.Fatal(err)
		}
		fastLB, err1 := evFast.MulticastLB(p)
		refLB, err2 := evLP.MulticastLB(p)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: MulticastLB errors %v / %v", trial, err1, err2)
		}
		requireAgreement(t, "MulticastLB", fastLB, refLB, 1e-9)
		fastUB, err1 := evFast.ScatterUB(p)
		refUB, err2 := evLP.ScatterUB(p)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: ScatterUB errors %v / %v", trial, err1, err2)
		}
		requireAgreement(t, "ScatterUB", fastUB, refUB, 1e-9)

		// Multicast loads on a tree are exactly 1 on every edge of the
		// Steiner subtree spanned by the targets, 0 elsewhere.
		for id, l := range fastLB.EdgeLoad {
			if l != 0 && l != 1 {
				t.Fatalf("trial %d: fast-path multicast load[%d] = %v, want 0 or 1", trial, id, l)
			}
		}
	}
	fs := evFast.Stats()
	if fs.FastPathHits == 0 || fs.FastPathMisses != 0 {
		t.Errorf("fast evaluator: hits=%d misses=%d, want all-hit on pure trees", fs.FastPathHits, fs.FastPathMisses)
	}
	if fs.Solves != 0 {
		t.Errorf("fast evaluator ran %d LP solves on pure trees, want 0", fs.Solves)
	}
	ls := evLP.Stats()
	if ls.FastPathHits != 0 || ls.FastPathMisses != 0 {
		t.Errorf("forced-LP evaluator touched the classifier: hits=%d misses=%d", ls.FastPathHits, ls.FastPathMisses)
	}
	if ls.Solves == 0 {
		t.Error("forced-LP evaluator ran no LP solves")
	}
	t.Logf("validated %d random trees: %d fast-path bounds vs %d LP solves", trees, fs.FastPathHits, ls.Solves)
}

func TestFastPathNonTreeFallsBack(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	evFast := NewEvaluator()
	evLP := lpEvaluator()
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(16)
		g, ids := randomTree(r, n, true)
		// A chord closes an undirected cycle: the platform is no longer
		// a tree and the LP can split flow across the two routes.
		u, v := ids[r.Intn(n)], ids[r.Intn(n)]
		for u == v {
			v = ids[r.Intn(n)]
		}
		g.AddLink(u, v, 0.25+r.Float64()*3.75)
		if evFast.TreeClass(g, ids[0]) != graph.ClassGeneral {
			// The chord may duplicate an existing link (parallel edges):
			// still ClassGeneral, so this cannot happen.
			t.Fatalf("trial %d: chorded tree classified as tree", trial)
		}
		p, err := NewProblem(g, ids[0], randomTargets(r, ids))
		if err != nil {
			t.Fatal(err)
		}
		fast, err1 := evFast.MulticastLB(p)
		ref, err2 := evLP.MulticastLB(p)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		// Both answered by the same LP: identical, not merely close.
		if fast.Period != ref.Period {
			t.Fatalf("trial %d: fallback LP period %.17g != forced LP period %.17g", trial, fast.Period, ref.Period)
		}
	}
	fs := evFast.Stats()
	if fs.FastPathHits != 0 {
		t.Errorf("fast path claimed %d hits on non-tree platforms", fs.FastPathHits)
	}
	if fs.FastPathMisses == 0 {
		t.Error("no fast-path misses recorded on non-tree platforms")
	}
	if fs.Solves == 0 {
		t.Error("no LP solves recorded despite fallback")
	}
}

func TestTrialOpsTakeFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(12)
		g, ids := randomTree(r, n, true)
		u, v := ids[1+r.Intn(n-1)], ids[1+r.Intn(n-1)]
		for u == v {
			v = ids[1+r.Intn(n-1)]
		}
		chord := g.AddEdge(u, v, 1.5)

		evFast := NewEvaluator()
		evLP := lpEvaluator()
		p, err := NewProblem(g, ids[0], ids[1:])
		if err != nil {
			t.Fatal(err)
		}

		// Failing the chord turns the platform back into a tree: the
		// what-if trial must pick the fast path up mid-flight, through
		// the stamp-invalidated classifier.
		before := evFast.Stats()
		drop := graph.Delta{graph.DisableEdgeOp(chord)}
		fast, err1 := trialLB(evFast, p, drop)
		ref, err2 := trialLB(evLP, p, drop)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		requireAgreement(t, "drop-edge trial", fast, ref, 1e-9)
		d := evFast.Stats().Delta(before)
		if d.FastPathHits != 1 {
			t.Fatalf("trial %d: drop-edge trial fast-path hits = %d, want 1", trial, d.FastPathHits)
		}
		if d.Solves != 0 {
			t.Fatalf("trial %d: drop-edge trial ran %d LP solves on a tree", trial, d.Solves)
		}

		// The mask is restored on return, so the same evaluator now
		// sees the chorded platform again and must fall back. evFast
		// pooled no cuts (its trial took the fast path) while evLP
		// pooled its trial's cuts, and a seeded cut loop may end on
		// another optimal vertex; a fresh LP evaluator has evFast's
		// empty history, so the two run the same LP bit for bit.
		before = evFast.Stats()
		fast, err1 = evFast.MulticastLB(p)
		ref, err2 = lpEvaluator().MulticastLB(p)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		if fast.Period != ref.Period {
			t.Fatalf("trial %d: post-restore period %.17g != %.17g", trial, fast.Period, ref.Period)
		}
		d = evFast.Stats().Delta(before)
		if d.FastPathMisses != 1 || d.FastPathHits != 0 {
			t.Fatalf("trial %d: post-restore hits=%d misses=%d, want 0/1", trial, d.FastPathHits, d.FastPathMisses)
		}
	}
}

func TestScaleAndDropNodeFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	g, ids := randomTree(r, 12, true)
	evFast := NewEvaluator()
	evLP := lpEvaluator()
	p, err := NewProblem(g, ids[0], ids[1:])
	if err != nil {
		t.Fatal(err)
	}
	for edge := 0; edge < g.NumEdges(); edge += 3 {
		scale := graph.Delta{graph.ScaleEdgeCostOp(edge, 2.5)}
		fast, err1 := trialLB(evFast, p, scale)
		ref, err2 := trialLB(evLP, p, scale)
		if err1 != nil || err2 != nil {
			t.Fatalf("edge %d: %v / %v", edge, err1, err2)
		}
		requireAgreement(t, "scale-edge trial", fast, ref, 1e-9)
	}
	// Dropping a leaf keeps the rest reachable; dropping an internal
	// node cuts its subtree off and broadcast must go infeasible. Both
	// verdicts must match the LP's.
	for _, drop := range ids[1:] {
		fast, err1 := evFast.DropNodeBroadcast(g, ids[0], drop)
		ref, err2 := evLP.DropNodeBroadcast(g, ids[0], drop)
		if err1 != nil || err2 != nil {
			t.Fatalf("drop %v: %v / %v", drop, err1, err2)
		}
		requireAgreement(t, "DropNodeBroadcast", fast, ref, 1e-9)
	}
	if s := evFast.Stats(); s.Solves != 0 {
		t.Errorf("fast evaluator ran %d LP solves across tree trials, want 0", s.Solves)
	}
}

func TestFastPathInfeasibleOnMaskedTree(t *testing.T) {
	// Disabling a forward-only tree arc leaves a (smaller) tree whose
	// lost subtree is unreachable: the fast path must report the same
	// +Inf the LP does.
	g := graph.New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	e1 := g.AddEdge(s, a, 1)
	g.AddEdge(a, b, 1)
	p, err := NewProblem(g, s, []graph.NodeID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	evFast := NewEvaluator()
	evLP := lpEvaluator()
	drop := graph.Delta{graph.DisableEdgeOp(e1)}
	fast, err1 := trialLB(evFast, p, drop)
	ref, err2 := trialLB(evLP, p, drop)
	if err1 != nil || err2 != nil {
		t.Fatalf("%v / %v", err1, err2)
	}
	if !fast.Infeasible() || !ref.Infeasible() {
		t.Fatalf("fast=%v LP=%v, want both infeasible", fast.Period, ref.Period)
	}
	if evFast.Stats().Solves != 0 {
		t.Error("infeasible tree verdict should not have run the LP")
	}
}

func TestFastPathCacheInteraction(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g, ids := randomTree(r, 10, true)
	ev := NewEvaluator()
	p, err := NewProblem(g, ids[0], ids[1:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.MulticastLB(p); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.MulticastLB(p); err != nil {
		t.Fatal(err)
	}
	s := ev.Stats()
	// The repeat evaluation is a cache hit, not a second fast-path hit.
	if s.FastPathHits != 1 || s.CacheHits != 1 || s.Evaluations != 2 {
		t.Errorf("hits=%d cacheHits=%d evals=%d, want 1/1/2", s.FastPathHits, s.CacheHits, s.Evaluations)
	}
}

func TestSetFastPathToggleAndClone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g, ids := randomTree(r, 8, true)
	p, err := NewProblem(g, ids[0], ids[1:])
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator()
	if !ev.FastPath() {
		t.Fatal("fast path should be on by default")
	}
	ev.SetFastPath(false)
	if ev.FastPath() {
		t.Fatal("SetFastPath(false) did not stick")
	}
	clone := ev.Clone()
	if clone.FastPath() {
		t.Error("clone did not inherit the fast-path switch")
	}
	if _, err := clone.MulticastLB(p); err != nil {
		t.Fatal(err)
	}
	if s := clone.Stats(); s.Solves == 0 || s.FastPathHits != 0 {
		t.Errorf("forced-LP clone: solves=%d hits=%d, want LP-only", s.Solves, s.FastPathHits)
	}
	ev.SetFastPath(true)
	if _, err := ev.MulticastLB(p); err != nil {
		t.Fatal(err)
	}
	if s := ev.Stats(); s.FastPathHits != 1 {
		t.Errorf("re-enabled fast path hits = %d, want 1", s.FastPathHits)
	}
}

// TestFastPathMatchesCutRegime pins agreement at a scale where the LP
// reference runs the cut-covering master rather than the direct
// formulation (broadcast with ~80 nodes blows the direct-regime size
// cap). The cutting plane terminates at cutTol relative, so the
// comparison tolerance is the LP's, not the fast path's.
func TestFastPathMatchesCutRegime(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		g, ids := randomTree(r, 80, true)
		evFast := NewEvaluator()
		evLP := lpEvaluator()
		fast, err1 := evFast.BroadcastEB(g, ids[0])
		ref, err2 := evLP.BroadcastEB(g, ids[0])
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		if d := relDiff(fast.Period, ref.Period); d > 10*cutTol {
			t.Fatalf("trial %d: fast %.17g vs cut-regime LP %.17g (rel diff %.3g)", trial, fast.Period, ref.Period, d)
		}
		if evLP.Stats().Cuts == 0 {
			t.Fatalf("trial %d: reference did not exercise the cut regime", trial)
		}
	}
}
