package steady

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/tiers"
)

// TestEvaluatorMatchesDirectCalls checks every Evaluator program
// against a fresh LP-only evaluator per call on random platforms:
// caching, workspace reuse and pooled warm starts must not change any
// value.
func TestEvaluatorMatchesDirectCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		p, ok := randomProblem(rng)
		if !ok {
			continue
		}
		ev := NewEvaluator()
		type pair struct {
			name     string
			got, ref func() (*Bound, error)
		}
		var extra []graph.NodeID
		for _, v := range p.G.ActiveNodes() {
			if v != p.Source {
				extra = append(extra, v)
				break
			}
		}
		checks := []pair{
			{"ScatterUB", func() (*Bound, error) { return ev.ScatterUB(p) }, func() (*Bound, error) { return lpEvaluator().ScatterUB(p) }},
			{"MulticastLB", func() (*Bound, error) { return ev.MulticastLB(p) }, func() (*Bound, error) { return lpEvaluator().MulticastLB(p) }},
			{"BroadcastEB", func() (*Bound, error) { return ev.BroadcastEB(p.G, p.Source) }, func() (*Bound, error) { return lpEvaluator().BroadcastEB(p.G, p.Source) }},
			{"MultiSourceUB", func() (*Bound, error) { return ev.MultiSourceUB(p, extra) }, func() (*Bound, error) { return lpEvaluator().MultiSourceUB(p, extra) }},
		}
		for _, c := range checks {
			got, err := c.got()
			if err != nil {
				t.Fatalf("trial %d: %s (evaluator): %v", trial, c.name, err)
			}
			ref, err := c.ref()
			if err != nil {
				t.Fatalf("trial %d: %s (direct): %v", trial, c.name, err)
			}
			if got.Infeasible() != ref.Infeasible() {
				t.Fatalf("trial %d: %s: feasibility disagrees", trial, c.name)
			}
			if !got.Infeasible() && math.Abs(got.Period-ref.Period) > 1e-5*(1+ref.Period) {
				t.Errorf("trial %d: %s: evaluator %v vs direct %v", trial, c.name, got.Period, ref.Period)
			}
		}
	}
}

// TestEvaluatorCaches checks that identical evaluations are answered
// from the cache and that returned bounds are safe to mutate.
func TestEvaluatorCaches(t *testing.T) {
	p := relay(t)
	ev := NewEvaluator()
	b1, err := ev.MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1.EdgeLoad {
		b1.EdgeLoad[i] = -99 // must not poison the cache
	}
	b2, err := ev.MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	if b2.EdgeLoad[0] == -99 {
		t.Fatal("cache returned an aliased EdgeLoad")
	}
	st := ev.Stats()
	if st.Evaluations != 2 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 2 evaluations with 1 cache hit", st)
	}
	if !approx(b1.Period, b2.Period, 1e-12) {
		t.Errorf("cached period %v != computed %v", b2.Period, b1.Period)
	}
}

// TestEvaluatorTrialOpsRestoreMask checks the incremental heuristic
// operations evaluate the modified platform but leave the activity
// mask untouched.
func TestEvaluatorTrialOpsRestoreMask(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	r := g.AddNode("r")
	tgt := g.AddNode("t")
	g.AddEdge(s, r, 1)
	g.AddEdge(r, tgt, 1)
	g.AddEdge(s, tgt, 5)
	ev := NewEvaluator()

	drop, err := ev.DropNodeBroadcast(g, s, r)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Active(r) {
		t.Fatal("DropNodeBroadcast left the node deactivated")
	}
	g.Deactivate(r)
	want, err := lpEvaluator().BroadcastEB(g, s)
	g.Activate(r)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(drop.Period, want.Period, 1e-9) {
		t.Errorf("drop trial period %v, want %v", drop.Period, want.Period)
	}

	g.Deactivate(r)
	add, err := ev.AddNodeBroadcast(g, s, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.Active(r) {
		t.Fatal("AddNodeBroadcast left the node activated")
	}
	g.Activate(r)
	full, err := lpEvaluator().BroadcastEB(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(add.Period, full.Period, 1e-9) {
		t.Errorf("add trial period %v, want %v", add.Period, full.Period)
	}

	p := mustNewProblem(t, g, s, []graph.NodeID{tgt})
	promoted, err := ev.PromoteSource(p, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lpEvaluator().MultiSourceUB(p, []graph.NodeID{r})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(promoted.Period, ref.Period, 1e-6) {
		t.Errorf("promote trial period %v, want %v", promoted.Period, ref.Period)
	}
}

func mustNewProblem(t *testing.T, g *graph.Graph, s graph.NodeID, targets []graph.NodeID) Problem {
	t.Helper()
	p, err := NewProblem(g, s, targets)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEvaluatorWarmAndPooledCuts drives the dense-target cutting-plane
// regime on a generated platform: the loop must actually warm-start,
// and a dropped-node re-evaluation must agree with a from-scratch
// solve while reusing the pooled cuts.
func TestEvaluatorWarmAndPooledCuts(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-platform LP solve is slow")
	}
	pl, err := tiers.Generate(tiers.Big(3))
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator()
	b, err := ev.BroadcastEB(pl.G, pl.Source)
	if err != nil {
		t.Fatal(err)
	}
	if b.Infeasible() {
		t.Fatal("generated platform disconnected")
	}
	if b.Rounds > 1 && b.WarmSolves == 0 {
		t.Errorf("cutting plane ran %d rounds with no warm-started solve", b.Rounds)
	}
	drop := pl.LAN[0]
	trial, err := ev.DropNodeBroadcast(pl.G, pl.Source, drop)
	if err != nil {
		t.Fatal(err)
	}
	g2 := pl.G.Clone()
	g2.Deactivate(drop)
	want, err := lpEvaluator().BroadcastEB(g2, pl.Source)
	if err != nil {
		t.Fatal(err)
	}
	if trial.Infeasible() != want.Infeasible() {
		t.Fatal("dropped-node feasibility disagrees")
	}
	if !trial.Infeasible() && math.Abs(trial.Period-want.Period) > 1e-5*(1+want.Period) {
		t.Errorf("dropped-node trial %v vs reference %v", trial.Period, want.Period)
	}
	st := ev.Stats()
	if st.WarmSolves == 0 {
		t.Errorf("no warm-started solves recorded: %+v", st)
	}
	if st.Cuts == 0 {
		t.Errorf("no cuts pooled: %+v", st)
	}
}

// TestEvaluatorReset checks the serving-shard contract: after Reset the
// evaluator answers bit-identically to a brand-new one (the logical
// state is gone), while the cumulative statistics and the workspace
// survive.
func TestEvaluatorReset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var problems []Problem
	for len(problems) < 3 {
		if p, ok := randomProblem(rng); ok {
			problems = append(problems, p)
		}
	}
	warm := NewEvaluator()
	// Warm the evaluator on the first problems, then reset and replay
	// the last one against a fresh evaluator.
	for _, p := range problems[:2] {
		if _, err := warm.MulticastLB(p); err != nil {
			t.Fatal(err)
		}
		if _, err := warm.ScatterUB(p); err != nil {
			t.Fatal(err)
		}
	}
	statsBefore := warm.Stats()
	if statsBefore.Evaluations == 0 || statsBefore.Solves == 0 {
		t.Fatalf("warmup did no work: %+v", statsBefore)
	}
	warm.Reset()
	if got := warm.Stats(); got.Evaluations != statsBefore.Evaluations || got.Solves != statsBefore.Solves {
		t.Errorf("Reset dropped cumulative stats: before %+v after %+v", statsBefore, got)
	}

	last := problems[2]
	fresh := NewEvaluator()
	got, err := warm.MulticastLB(last)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.MulticastLB(last)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Period) != math.Float64bits(want.Period) {
		t.Errorf("post-Reset period %v is not bit-identical to fresh %v", got.Period, want.Period)
	}
	if len(got.EdgeLoad) != len(want.EdgeLoad) {
		t.Fatalf("EdgeLoad lengths differ: %d vs %d", len(got.EdgeLoad), len(want.EdgeLoad))
	}
	for i := range got.EdgeLoad {
		if math.Float64bits(got.EdgeLoad[i]) != math.Float64bits(want.EdgeLoad[i]) {
			t.Fatalf("EdgeLoad[%d] differs after Reset: %v vs %v", i, got.EdgeLoad[i], want.EdgeLoad[i])
		}
	}
	// Re-evaluating the same problem must now be a cache hit again.
	before := warm.Stats()
	if _, err := warm.MulticastLB(last); err != nil {
		t.Fatal(err)
	}
	if d := warm.Stats().Delta(before); d.CacheHits != 1 {
		t.Errorf("expected a cache hit after re-population, got %+v", d)
	}
}

// TestFingerprint checks the exported platform fingerprint: stable
// across clones, sensitive to costs and to the activity mask.
func TestFingerprint(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(s, a, 1)
	e := g.AddEdge(a, b, 2)
	_ = e
	fp := Fingerprint(g)
	if fp != Fingerprint(g.Clone()) {
		t.Error("clone changed the fingerprint")
	}
	g2 := g.Clone()
	g2.Deactivate(b)
	if Fingerprint(g2) == fp {
		t.Error("deactivating a node did not change the fingerprint")
	}
	g3 := graph.New()
	s3 := g3.AddNode("S")
	a3 := g3.AddNode("a")
	b3 := g3.AddNode("b")
	g3.AddEdge(s3, a3, 1)
	g3.AddEdge(a3, b3, 3)
	if Fingerprint(g3) == fp {
		t.Error("changing an edge cost did not change the fingerprint")
	}
}

// trialLB evaluates Multicast-LB on p's platform perturbed by d and
// undoes d before returning: the edge trial the what-if engine runs
// through graph.Delta.
func trialLB(ev *Evaluator, p Problem, d graph.Delta) (*Bound, error) {
	undo, err := d.Apply(p.G)
	if err != nil {
		return nil, err
	}
	defer undo.Apply(p.G)
	return ev.MulticastLB(p)
}

// TestEvaluatorEdgeTrialOps checks the edge trials (a link failure and
// a degraded link, applied as a graph.Delta and undone): they evaluate
// the perturbed platform, match direct solves on a mutated clone, and
// restore the edge mask and costs before returning.
func TestEvaluatorEdgeTrialOps(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	r := g.AddNode("r")
	tgt := g.AddNode("t")
	sr := g.AddEdge(s, r, 1)
	g.AddEdge(r, tgt, 1)
	g.AddEdge(s, tgt, 5)
	p, err := NewProblem(g, s, []graph.NodeID{tgt})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator()

	drop, err := trialLB(ev, p, graph.Delta{graph.DisableEdgeOp(sr)})
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeDisabled(sr) {
		t.Fatal("drop-edge trial left the edge disabled")
	}
	gd := g.Clone()
	gd.DisableEdge(sr)
	pd, err := NewProblem(gd, s, []graph.NodeID{tgt})
	if err != nil {
		t.Fatal(err)
	}
	wantDrop, err := lpEvaluator().MulticastLB(pd)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(drop.Period, wantDrop.Period, 1e-9) {
		t.Errorf("drop-edge trial period %v, want %v", drop.Period, wantDrop.Period)
	}

	scale, err := trialLB(ev, p, graph.Delta{graph.ScaleEdgeCostOp(sr, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Edge(sr).Cost; got != 1 {
		t.Fatalf("scale-edge trial left cost %v, want 1", got)
	}
	gs := g.Clone()
	gs.SetEdgeCost(sr, 10)
	ps, err := NewProblem(gs, s, []graph.NodeID{tgt})
	if err != nil {
		t.Fatal(err)
	}
	wantScale, err := lpEvaluator().MulticastLB(ps)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(scale.Period, wantScale.Period, 1e-9) {
		t.Errorf("scale-edge trial period %v, want %v", scale.Period, wantScale.Period)
	}
	if scale.Period <= drop.Period == (wantScale.Period > wantDrop.Period) {
		t.Errorf("trial ordering inconsistent with direct solves")
	}

	// Dropping the only useful edges leaves the slow direct edge.
	base, err := ev.MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	if scale.Period <= base.Period {
		t.Errorf("degrading the relay edge did not hurt: %v <= %v", scale.Period, base.Period)
	}
}

// TestEvaluatorCloneIndependence pins the Clone contract: a clone
// answers exactly like its parent, and the two share no mutable state —
// solving on one changes neither the other's results nor its
// SolveStats.
func TestEvaluatorCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var problems []Problem
	for len(problems) < 2 {
		if p, ok := randomProblem(rng); ok {
			problems = append(problems, p)
		}
	}
	warm, other := problems[0], problems[1]

	parent := NewEvaluator()
	if _, err := parent.MulticastLB(warm); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.MultiSourceUB(warm, nil); err != nil {
		t.Fatal(err)
	}

	clone := parent.Clone()
	if got := clone.Stats(); got != (SolveStats{}) {
		t.Fatalf("clone starts with stats %+v, want zero", got)
	}

	// The clone answers the warmed problem from the copied cache...
	cb, err := clone.MulticastLB(warm)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := parent.MulticastLB(warm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(cb.Period) != math.Float64bits(pb.Period) {
		t.Errorf("clone period %v != parent period %v", cb.Period, pb.Period)
	}
	if d := clone.Stats(); d.CacheHits != 1 {
		t.Errorf("clone did not inherit the result cache: %+v", d)
	}

	// ...and fresh work on the clone leaves the parent untouched.
	before := parent.Stats()
	if _, err := clone.MulticastLB(other); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.ScatterUB(other); err != nil {
		t.Fatal(err)
	}
	after := parent.Stats()
	if d := after.Delta(before); d != (SolveStats{}) {
		t.Errorf("clone work leaked into parent stats: %+v", d)
	}
	if cs := clone.Stats(); cs.Solves == 0 {
		t.Errorf("clone recorded no solves of its own: %+v", cs)
	}

	// Parent work after the clone point leaves the clone untouched.
	cloneBefore := clone.Stats()
	if _, err := parent.MultiSourceUB(other, nil); err != nil {
		t.Fatal(err)
	}
	if got := clone.Stats(); got != cloneBefore {
		t.Errorf("parent work leaked into clone stats: before %+v after %+v", cloneBefore, got)
	}
}

// TestEvaluatorResetToMatchesParent pins the ResetTo contract the
// what-if workers rely on: an evaluator that has done unrelated work,
// restored with ResetTo(parent), computes bit for bit what the parent
// itself computes next, with the same solver effort, and keeps its own
// cumulative statistics. The dense-target platform runs the cutting
// plane, so the copied cut pool seeds the evaluation.
func TestEvaluatorResetToMatchesParent(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-platform LP solve is slow")
	}
	pl, err := tiers.Generate(tiers.Big(3))
	if err != nil {
		t.Fatal(err)
	}
	parent := NewEvaluator()
	if _, err := parent.BroadcastEB(pl.G, pl.Source); err != nil {
		t.Fatal(err)
	}
	if parent.Stats().Cuts == 0 {
		t.Fatal("the baseline pooled no cuts")
	}
	worker := NewEvaluator()
	rng := rand.New(rand.NewSource(5))
	for done := 0; done < 2; {
		if p, ok := randomProblem(rng); ok {
			if _, err := worker.MulticastLB(p); err != nil {
				t.Fatal(err)
			}
			done++
		}
	}
	cumulative := worker.Stats()
	worker.ResetTo(parent)
	if got := worker.Stats(); got != cumulative {
		t.Errorf("ResetTo changed the cumulative stats: %+v, want %+v", got, cumulative)
	}
	workerBefore, parentBefore := worker.Stats(), parent.Stats()
	got, err := worker.DropNodeBroadcast(pl.G, pl.Source, pl.LAN[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := parent.DropNodeBroadcast(pl.G, pl.Source, pl.LAN[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Period) != math.Float64bits(want.Period) || len(got.EdgeLoad) != len(want.EdgeLoad) {
		t.Fatalf("restored evaluator period %v, parent %v", got.Period, want.Period)
	}
	for i := range got.EdgeLoad {
		if math.Float64bits(got.EdgeLoad[i]) != math.Float64bits(want.EdgeLoad[i]) {
			t.Fatalf("EdgeLoad[%d]: restored evaluator %v, parent %v", i, got.EdgeLoad[i], want.EdgeLoad[i])
		}
	}
	w, p := worker.Stats().Delta(workerBefore), parent.Stats().Delta(parentBefore)
	if w != p || w.Solves == 0 {
		t.Errorf("restored evaluator effort %+v, parent %+v", w, p)
	}
}

// TestFingerprintEdgeMask: disabling an edge changes the fingerprint,
// and re-enabling it restores the original value bit-for-bit.
func TestFingerprintEdgeMask(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	id := g.AddEdge(s, a, 1)
	fp := Fingerprint(g)
	g.DisableEdge(id)
	if Fingerprint(g) == fp {
		t.Error("disabling an edge did not change the fingerprint")
	}
	g.EnableEdge(id)
	if Fingerprint(g) != fp {
		t.Error("re-enabling the edge did not restore the fingerprint")
	}
}
