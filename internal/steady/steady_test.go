package steady

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tiers"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// star: S -> t1, t2, t3 with unit costs. No sharing is possible, so the
// scatter bound and the optimistic bound coincide at period 3.
func star(t *testing.T) Problem {
	t.Helper()
	g := graph.New()
	s := g.AddNode("S")
	ts := g.AddNodes("t", 3)
	for _, v := range ts {
		g.AddEdge(s, v, 1)
	}
	p, err := NewProblem(g, s, ts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// relay is the paper's Figure 5 platform: S -> hub (cost 1), hub -> 3
// targets (cost 1/3). The gap between the two bounds is |Ptarget| = 3.
func relay(t *testing.T) Problem {
	t.Helper()
	g := graph.New()
	s := g.AddNode("S")
	hub := g.AddNode("A")
	ts := g.AddNodes("t", 3)
	g.AddEdge(s, hub, 1)
	for _, v := range ts {
		g.AddEdge(hub, v, 1.0/3)
	}
	p, err := NewProblem(g, s, ts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chain: S -> a -> b, targets {a, b}, unit costs.
func chain(t *testing.T) Problem {
	t.Helper()
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(s, a, 1)
	g.AddEdge(a, b, 1)
	p, err := NewProblem(g, s, []graph.NodeID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	g.AddEdge(s, a, 1)
	if _, err := NewProblem(g, s, nil); err == nil {
		t.Error("empty targets accepted")
	}
	if _, err := NewProblem(g, s, []graph.NodeID{s}); err == nil {
		t.Error("source-as-target accepted")
	}
	if _, err := NewProblem(g, s, []graph.NodeID{a, a}); err == nil {
		t.Error("duplicate target accepted")
	}
	g.Deactivate(a)
	if _, err := NewProblem(g, s, []graph.NodeID{a}); err == nil {
		t.Error("inactive target accepted")
	}
	g.Activate(a)
	g.Deactivate(s)
	if _, err := NewProblem(g, s, []graph.NodeID{a}); err == nil {
		t.Error("inactive source accepted")
	}
}

func TestScatterUBStar(t *testing.T) {
	b, err := lpEvaluator().ScatterUB(star(t))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.Period, 3, 1e-7) {
		t.Fatalf("star scatter period = %v, want 3", b.Period)
	}
	if !approx(b.Throughput(), 1.0/3, 1e-7) {
		t.Fatalf("throughput = %v", b.Throughput())
	}
}

func TestMulticastLBStar(t *testing.T) {
	b, err := lpEvaluator().MulticastLB(star(t))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.Period, 3, 1e-7) {
		t.Fatalf("star LB period = %v, want 3", b.Period)
	}
}

func TestFigure5Gap(t *testing.T) {
	p := relay(t)
	ub, err := lpEvaluator().ScatterUB(p)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := lpEvaluator().MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(ub.Period, 3, 1e-7) {
		t.Errorf("scatter period = %v, want 3", ub.Period)
	}
	if !approx(lb.Period, 1, 1e-7) {
		t.Errorf("LB period = %v, want 1", lb.Period)
	}
	if ratio := ub.Period / lb.Period; !approx(ratio, float64(len(p.Targets)), 1e-6) {
		t.Errorf("gap = %v, want |Ptarget| = %d", ratio, len(p.Targets))
	}
}

func TestChainBounds(t *testing.T) {
	p := chain(t)
	ub, err := lpEvaluator().ScatterUB(p)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := lpEvaluator().MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(ub.Period, 2, 1e-7) {
		t.Errorf("chain scatter period = %v, want 2", ub.Period)
	}
	if !approx(lb.Period, 1, 1e-7) {
		t.Errorf("chain LB period = %v, want 1", lb.Period)
	}
}

func TestBroadcastEBTwoNodes(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	g.AddEdge(s, a, 2)
	b, err := lpEvaluator().BroadcastEB(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.Period, 2, 1e-7) {
		t.Fatalf("broadcast period = %v, want 2", b.Period)
	}
}

func TestBroadcastEBSingleNode(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	b, err := lpEvaluator().BroadcastEB(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if b.Period != 0 {
		t.Fatalf("degenerate broadcast period = %v, want 0", b.Period)
	}
}

func TestUnreachableIsInfeasible(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	x := g.AddNode("x") // no edges at all
	g.AddEdge(s, a, 1)
	p, err := NewProblem(g, s, []graph.NodeID{a, x})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(Problem) (*Bound, error){
		"ScatterUB":   lpEvaluator().ScatterUB,
		"MulticastLB": lpEvaluator().MulticastLB,
	} {
		b, err := f(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !b.Infeasible() || b.Throughput() != 0 {
			t.Errorf("%s: expected infeasible, got period %v", name, b.Period)
		}
	}
	bb, err := lpEvaluator().BroadcastEB(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Infeasible() {
		t.Error("BroadcastEB: expected infeasible")
	}
	ms, err := lpEvaluator().MultiSourceUB(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Infeasible() {
		t.Error("MultiSourceUB: expected infeasible")
	}
}

func TestMultiSourceEqualsScatterWithoutExtras(t *testing.T) {
	for _, p := range []Problem{star(t), relay(t), chain(t)} {
		ub, err := lpEvaluator().ScatterUB(p)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := lpEvaluator().MultiSourceUB(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(ub.Period, ms.Period, 1e-6) {
			t.Errorf("scatter %v vs multisource-no-extras %v", ub.Period, ms.Period)
		}
	}
}

func TestMultiSourceRelayPromotion(t *testing.T) {
	// Promoting the Figure 5 hub to an intermediate source recovers the
	// optimal period 1 that the plain scatter bound misses by 3x.
	p := relay(t)
	hub, _ := p.G.NodeByName("A")
	ms, err := lpEvaluator().MultiSourceUB(p, []graph.NodeID{hub})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(ms.Period, 1, 1e-6) {
		t.Fatalf("multisource period = %v, want 1", ms.Period)
	}
}

func TestMultiSourceChainPromotion(t *testing.T) {
	p := chain(t)
	a, _ := p.G.NodeByName("a")
	ms, err := lpEvaluator().MultiSourceUB(p, []graph.NodeID{a})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(ms.Period, 1, 1e-6) {
		t.Fatalf("multisource chain period = %v, want 1", ms.Period)
	}
}

func TestMultiSourceValidation(t *testing.T) {
	p := chain(t)
	a, _ := p.G.NodeByName("a")
	if _, err := lpEvaluator().MultiSourceUB(p, []graph.NodeID{a, a}); err == nil {
		t.Error("duplicate extra source accepted")
	}
	if _, err := lpEvaluator().MultiSourceUB(p, []graph.NodeID{p.Source}); err == nil {
		t.Error("main source duplicated as extra accepted")
	}
}

func TestRecoverUnitFlows(t *testing.T) {
	p := relay(t)
	lb, err := lpEvaluator().MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	flows := lpEvaluator().RecoverUnitFlows(p.G, lb.EdgeLoad, p.Source, p.Targets)
	if len(flows) != 3 {
		t.Fatalf("got %d flows", len(flows))
	}
	hub, _ := p.G.NodeByName("A")
	// Every target's unit flow passes through the hub.
	if got := InflowAt(p.G, flows, hub); !approx(got, 3, 1e-6) {
		t.Errorf("hub inflow = %v, want 3", got)
	}
	if got := AggregateInflowAt(p.G, lb.EdgeLoad, hub); !approx(got, 1, 1e-6) {
		t.Errorf("aggregate hub inflow under LB loads = %v, want 1", got)
	}
}

func randomProblem(rng *rand.Rand) (Problem, bool) {
	g := graph.New()
	n := 3 + rng.Intn(7)
	ids := g.AddNodes("n", n)
	for i := 0; i < 3*n; i++ {
		a := ids[rng.Intn(n)]
		b := ids[rng.Intn(n)]
		if a != b {
			g.AddEdge(a, b, 0.25+rng.Float64())
		}
	}
	src := ids[0]
	var targets []graph.NodeID
	for _, v := range ids[1:] {
		if rng.Intn(2) == 0 {
			targets = append(targets, v)
		}
	}
	if len(targets) == 0 {
		targets = append(targets, ids[1])
	}
	p, err := NewProblem(g, src, targets)
	if err != nil {
		return Problem{}, false
	}
	return p, true
}

// Property: the paper's bound ordering holds on random platforms:
//
//	MulticastLB <= ScatterUB <= |Ptarget| * MulticastLB
//	MulticastLB <= BroadcastEB   (broadcast serves a superset)
//	MulticastLB <= MultiSourceUB (multisource schedules are feasible
//	   schedules; note extras can make the period *worse* than plain
//	   scatter, because every intermediate source must receive the whole
//	   message — which is why AUGMENTED SOURCES only keeps improving
//	   promotions)
func TestBoundOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, ok := randomProblem(rng)
		if !ok {
			return true
		}
		ub, err := lpEvaluator().ScatterUB(p)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		lb, err := lpEvaluator().MulticastLB(p)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if ub.Infeasible() != lb.Infeasible() {
			return false
		}
		if ub.Infeasible() {
			return true
		}
		const tol = 1e-6
		if lb.Period > ub.Period+tol {
			t.Logf("seed %d: LB %v > UB %v", seed, lb.Period, ub.Period)
			return false
		}
		if ub.Period > float64(len(p.Targets))*lb.Period+tol {
			t.Logf("seed %d: UB %v > |T|*LB %v", seed, ub.Period, float64(len(p.Targets))*lb.Period)
			return false
		}
		bc, err := lpEvaluator().BroadcastEB(p.G, p.Source)
		if err != nil {
			return false
		}
		if !bc.Infeasible() && lb.Period > bc.Period+tol {
			t.Logf("seed %d: LB %v > BroadcastEB %v", seed, lb.Period, bc.Period)
			return false
		}
		// Promote the first non-target, non-source node (if any).
		var extra []graph.NodeID
		isT := map[graph.NodeID]bool{p.Source: true}
		for _, x := range p.Targets {
			isT[x] = true
		}
		for _, v := range p.G.ActiveNodes() {
			if !isT[v] {
				extra = append(extra, v)
				break
			}
		}
		ms, err := lpEvaluator().MultiSourceUB(p, extra)
		if err != nil {
			t.Logf("seed %d: multisource: %v", seed, err)
			return false
		}
		if !ms.Infeasible() && ms.Period < lb.Period-tol {
			t.Logf("seed %d: multisource %v < LB %v", seed, ms.Period, lb.Period)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the LB load profile supports a unit flow to every target
// and respects the one-port occupation bound T on every port.
func TestLBLoadsAreConsistentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, ok := randomProblem(rng)
		if !ok {
			return true
		}
		lb, err := lpEvaluator().MulticastLB(p)
		if err != nil || lb.Infeasible() {
			return err == nil
		}
		flows := lpEvaluator().RecoverUnitFlows(p.G, lb.EdgeLoad, p.Source, p.Targets)
		for ti, tgt := range p.Targets {
			total := 0.0
			for _, id := range p.G.InEdges(tgt, nil) {
				total += flows[ti][id]
			}
			outOf := 0.0
			for _, id := range p.G.OutEdges(tgt, nil) {
				outOf += flows[ti][id]
			}
			if total-outOf < 1-1e-5 {
				t.Logf("seed %d: target %v net inflow %v", seed, tgt, total-outOf)
				return false
			}
		}
		var buf []int
		for _, v := range p.G.ActiveNodes() {
			occIn, occOut := 0.0, 0.0
			buf = p.G.InEdges(v, buf[:0])
			for _, id := range buf {
				occIn += p.G.Edge(id).Cost * lb.EdgeLoad[id]
			}
			buf = p.G.OutEdges(v, buf[:0])
			for _, id := range buf {
				occOut += p.G.Edge(id).Cost * lb.EdgeLoad[id]
			}
			if occIn > lb.Period+1e-6 || occOut > lb.Period+1e-6 {
				t.Logf("seed %d: port overload at %v", seed, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// lbForm runs one Multicast-LB formulation behind multicastLB's
// preamble (reachability and the active-edge list), bypassing its
// size switch.
func lbForm(ev *Evaluator, p Problem, form func(Problem) (*Bound, error)) (*Bound, error) {
	if !p.G.ReachesAll(p.Source, p.Targets) {
		return infeasibleBound(), nil
	}
	ev.sc.edges = p.G.AppendActiveEdges(ev.sc.edges[:0])
	return form(p)
}

// Property: the two independent Multicast-LB implementations (direct
// per-target LP and cut-covering with min-cut separation) compute the
// same optimal period.
func TestLBFormulationsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, ok := randomProblem(rng)
		if !ok {
			return true
		}
		ev := lpEvaluator()
		direct, err := lbForm(ev, p, ev.multicastLBDirect)
		if err != nil {
			t.Logf("seed %d: direct: %v", seed, err)
			return false
		}
		ev = lpEvaluator()
		cuts, err := lbForm(ev, p, ev.multicastLBCuts)
		if err != nil {
			t.Logf("seed %d: cuts: %v", seed, err)
			return false
		}
		if direct.Infeasible() != cuts.Infeasible() {
			return false
		}
		if direct.Infeasible() {
			return true
		}
		if math.Abs(direct.Period-cuts.Period) > 1e-5*(1+direct.Period) {
			t.Logf("seed %d: direct %v vs cuts %v", seed, direct.Period, cuts.Period)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}

	// The heuristics' own trial shapes, all broadcast-shaped: REDUCED
	// BROADCAST's platforms with one node dropped and AUGMENTED
	// MULTICAST's platforms restricted to the source and targets and
	// grown by one node, on Tiers small and big.
	for _, cfg := range []tiers.Config{tiers.Small(1), tiers.Big(1)} {
		pl, err := tiers.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		targets := pl.RandomTargets(rand.New(rand.NewSource(cfg.Seed)), 0.2)
		isFixed := map[graph.NodeID]bool{pl.Source: true}
		for _, v := range targets {
			isFixed[v] = true
		}
		var cands []graph.NodeID
		for _, v := range pl.G.ActiveNodes() {
			if !isFixed[v] {
				cands = append(cands, v)
			}
		}
		agree := func(what string, g *graph.Graph) {
			t.Helper()
			var ts []graph.NodeID
			for _, v := range g.ActiveNodes() {
				if v != pl.Source {
					ts = append(ts, v)
				}
			}
			p, err := NewProblem(g, pl.Source, ts)
			if err != nil {
				t.Fatal(err)
			}
			ev := lpEvaluator()
			direct, err := lbForm(ev, p, ev.multicastLBDirect)
			if err != nil {
				t.Fatalf("%s: direct: %v", what, err)
			}
			ev = lpEvaluator()
			cuts, err := lbForm(ev, p, ev.multicastLBCuts)
			if err != nil {
				t.Fatalf("%s: cuts: %v", what, err)
			}
			if direct.Infeasible() != cuts.Infeasible() {
				t.Fatalf("%s: direct infeasible=%v, cuts infeasible=%v", what, direct.Infeasible(), cuts.Infeasible())
			}
			if d := relDiff(direct.Period, cuts.Period); !direct.Infeasible() && d > 1e-9 {
				t.Fatalf("%s: direct %.17g vs cuts %.17g (rel diff %.3g > 1e-9)", what, direct.Period, cuts.Period, d)
			}
		}
		stride := 1 + len(cands)/8 // a sample; every candidate agrees too
		g := pl.G.Clone()
		for i := 0; i < len(cands); i += stride {
			g.Deactivate(cands[i])
			agree(fmt.Sprintf("Red. BC trial on %d-node Tiers, %s dropped", pl.G.NumNodes(), g.Name(cands[i])), g)
			g.Activate(cands[i])
		}
		g.Restrict(append([]graph.NodeID{pl.Source}, targets...))
		for i := 0; i < len(cands); i += stride {
			g.Activate(cands[i])
			agree(fmt.Sprintf("Augm. MC trial on %d-node Tiers, %s added", pl.G.NumNodes(), g.Name(cands[i])), g)
			g.Deactivate(cands[i])
		}
	}
}

// TestMulticastLBRoute pins multicastLB's dispatch: a broadcast-shaped
// program runs the cut master at every size, and a sparse multicast
// under the direct form's row cap runs the direct form.
func TestMulticastLBRoute(t *testing.T) {
	pl, err := tiers.Generate(tiers.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	tree, ids := randomTree(rand.New(rand.NewSource(3)), 10, true)
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		source graph.NodeID
	}{{"tiers.Small(1)", pl.G, pl.Source}, {"10-node tree", tree, ids[0]}} {
		b, err := lpEvaluator().BroadcastEB(c.g, c.source)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if b.Cuts == 0 {
			t.Errorf("%s: broadcast ran the direct form, want the cut master", c.name)
		}
	}
	targets := pl.RandomTargets(rand.New(rand.NewSource(1)), 0.2)
	p, err := NewProblem(pl.G, pl.Source, targets)
	if err != nil {
		t.Fatal(err)
	}
	nodes, edges := pl.G.NumActive(), len(pl.G.ActiveEdges())
	if rows := len(targets)*(nodes+edges) + 2*nodes; rows > 4600 {
		t.Fatalf("%d targets: %d estimated direct rows, over the cap", len(targets), rows)
	}
	b, err := lpEvaluator().MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cuts != 0 {
		t.Errorf("sparse multicast of %d targets ran the cut master (%d cuts), want the direct form", len(targets), b.Cuts)
	}
}

// TestInflowAtDeterministic pins InflowAt's summation order: it sums
// the per-target flows in target order, so every call on the same
// flows returns the same bits, and so does the candidate order the
// LP-based heuristics sort by these sums.
func TestInflowAtDeterministic(t *testing.T) {
	pl, err := tiers.Generate(tiers.Small(2))
	if err != nil {
		t.Fatal(err)
	}
	targets := pl.RandomTargets(rand.New(rand.NewSource(2)), 0.8)
	ev := NewEvaluator()
	bc, err := ev.BroadcastEB(pl.G, pl.Source)
	if err != nil {
		t.Fatal(err)
	}
	flows := ev.RecoverUnitFlows(pl.G, bc.EdgeLoad, pl.Source, targets)
	for _, m := range pl.G.ActiveNodes() {
		want := 0.0
		in := pl.G.InEdges(m, nil)
		for ti := range targets {
			for _, id := range in {
				want += flows[ti][id]
			}
		}
		for call := 0; call < 50; call++ {
			if got := InflowAt(pl.G, flows, m); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("node %s, call %d: InflowAt = %.17g, want %.17g (target-order sum)",
					pl.G.Name(m), call, got, want)
			}
		}
	}
}
