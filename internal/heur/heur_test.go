package heur

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/steady"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustProblem(t *testing.T, g *graph.Graph, s graph.NodeID, targets []graph.NodeID) steady.Problem {
	t.Helper()
	p, err := steady.NewProblem(g, s, targets)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// relay5 is the Figure 5 platform.
func relay5(t *testing.T) steady.Problem {
	t.Helper()
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("A")
	ts := g.AddNodes("t", 3)
	g.AddEdge(s, a, 1)
	for _, v := range ts {
		g.AddEdge(a, v, 1.0/3)
	}
	return mustProblem(t, g, s, ts)
}

func TestMCPHRelay(t *testing.T) {
	res, err := MCPH(relay5(t))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Period, 1, 1e-9) {
		t.Fatalf("period = %v, want 1", res.Period)
	}
	if res.Tree == nil || len(res.Tree.Edges) != 4 {
		t.Fatalf("tree = %+v", res.Tree)
	}
	if !approx(res.Throughput(), 1, 1e-9) {
		t.Fatalf("throughput = %v", res.Throughput())
	}
}

func TestMCPHCostUpdateMatters(t *testing.T) {
	// Targets a and b. Direct stars S->a, S->b would load S's out-port
	// to 2; after attaching a, the update rule makes S->b cost 2, so
	// the relay route a->b (1.2) is preferred: period 1.2.
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(s, a, 1)
	g.AddEdge(s, b, 1)
	g.AddEdge(a, b, 1.2)
	res, err := MCPH(mustProblem(t, g, s, []graph.NodeID{a, b}))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Period, 1.2, 1e-9) {
		t.Fatalf("period = %v, want 1.2 (relay route)", res.Period)
	}
}

func TestMCPHThroughTarget(t *testing.T) {
	// The cheapest path to b passes through target a: both targets are
	// covered by one path, and the second selection costs nothing.
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(s, a, 1)
	g.AddEdge(a, b, 1)
	res, err := MCPH(mustProblem(t, g, s, []graph.NodeID{a, b}))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Period, 1, 1e-9) {
		t.Fatalf("period = %v, want 1", res.Period)
	}
}

func TestMCPHUnreachable(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	x := g.AddNode("x")
	g.AddEdge(x, s, 1)
	if _, err := MCPH(mustProblem(t, g, s, []graph.NodeID{x})); err == nil {
		t.Fatal("expected error")
	}
}

func TestReducedBroadcastDropsSlowRelay(t *testing.T) {
	// Broadcasting to everyone forces the slow relay r (period >= 5);
	// the target only needs the direct edge (period 1).
	g := graph.New()
	s := g.AddNode("S")
	tgt := g.AddNode("t")
	r := g.AddNode("r")
	g.AddEdge(s, tgt, 1)
	g.AddEdge(s, r, 5)
	g.AddEdge(r, tgt, 5)
	res, err := ReducedBroadcast(steady.NewEvaluator(), mustProblem(t, g, s, []graph.NodeID{tgt}))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Period, 1, 1e-6) {
		t.Fatalf("period = %v, want 1", res.Period)
	}
	for _, v := range res.Kept {
		if v == r {
			t.Fatal("slow relay was kept")
		}
	}
}

func TestReducedBroadcastKeepsNeededRelay(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	r := g.AddNode("r")
	tgt := g.AddNode("t")
	g.AddEdge(s, r, 1)
	g.AddEdge(r, tgt, 1)
	res, err := ReducedBroadcast(steady.NewEvaluator(), mustProblem(t, g, s, []graph.NodeID{tgt}))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Period, 1, 1e-6) {
		t.Fatalf("period = %v, want 1", res.Period)
	}
	if len(res.Kept) != 3 {
		t.Fatalf("kept = %v, want all three nodes", res.Kept)
	}
}

func TestAugmentedMulticastAddsRelay(t *testing.T) {
	// The target is only reachable through r, so the initial broadcast
	// over {S, t} is infeasible and the heuristic must pull r in.
	g := graph.New()
	s := g.AddNode("S")
	r := g.AddNode("r")
	tgt := g.AddNode("t")
	g.AddEdge(s, r, 1)
	g.AddEdge(r, tgt, 1)
	res, err := AugmentedMulticast(steady.NewEvaluator(), mustProblem(t, g, s, []graph.NodeID{tgt}))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Period, 1, 1e-6) {
		t.Fatalf("period = %v, want 1", res.Period)
	}
	if len(res.Kept) != 3 {
		t.Fatalf("kept = %v", res.Kept)
	}
}

func TestAugmentedMulticastSkipsUselessNodes(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	tgt := g.AddNode("t")
	slow := g.AddNode("slow")
	g.AddEdge(s, tgt, 1)
	g.AddEdge(s, slow, 9)
	g.AddEdge(slow, tgt, 9)
	res, err := AugmentedMulticast(steady.NewEvaluator(), mustProblem(t, g, s, []graph.NodeID{tgt}))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Period, 1, 1e-6) {
		t.Fatalf("period = %v, want 1", res.Period)
	}
}

func TestAugmentedSourcesRelay(t *testing.T) {
	res, err := AugmentedSources(steady.NewEvaluator(), relay5(t))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Period, 1, 1e-6) {
		t.Fatalf("period = %v, want 1 (scatter alone gives 3)", res.Period)
	}
	if len(res.Sources) == 0 {
		t.Fatal("no sources promoted")
	}
}

func TestAllRegistry(t *testing.T) {
	hs := AllWith(steady.NewEvaluator())
	if len(hs) != 4 {
		t.Fatalf("registry has %d heuristics", len(hs))
	}
	p := relay5(t)
	for _, h := range hs {
		res, err := h.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		if math.IsInf(res.Period, 1) || res.Period <= 0 {
			t.Errorf("%s: period = %v", h.Name, res.Period)
		}
	}
}

// Property: on random connected platforms every heuristic produces a
// finite period no better than the Multicast-LB lower bound.
func TestHeuristicsDominatedByLB(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		n := 4 + rng.Intn(5)
		ids := g.AddNodes("n", n)
		// Random spanning tree first for connectivity, then extras.
		for i := 1; i < n; i++ {
			g.AddLink(ids[rng.Intn(i)], ids[i], 0.25+rng.Float64())
		}
		for i := 0; i < n; i++ {
			a := ids[rng.Intn(n)]
			b := ids[rng.Intn(n)]
			if a != b {
				if _, dup := g.FindEdge(a, b); !dup {
					g.AddEdge(a, b, 0.25+rng.Float64())
				}
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
			targets = ids[1:2]
		}
		p, err := steady.NewProblem(g, src, targets)
		if err != nil {
			return false
		}
		ev := steady.NewEvaluator()
		ev.SetFastPath(false)
		lb, err := ev.MulticastLB(p)
		if err != nil {
			t.Logf("seed %d: LB: %v", seed, err)
			return false
		}
		for _, h := range AllWith(steady.NewEvaluator()) {
			res, err := h.Run(p)
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, h.Name, err)
				return false
			}
			if math.IsInf(res.Period, 1) {
				t.Logf("seed %d: %s: infinite period on a connected platform", seed, h.Name)
				return false
			}
			if res.Period < lb.Period-1e-6 {
				t.Logf("seed %d: %s period %v below LB %v", seed, h.Name, res.Period, lb.Period)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMCPHPlainAblation(t *testing.T) {
	// On the platform where the cost update matters, the plain variant
	// keeps both direct star edges (period 2) while full MCPH reroutes
	// through the relay (period 1.2).
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(s, a, 1)
	g.AddEdge(s, b, 1)
	g.AddEdge(a, b, 1.2)
	p := mustProblem(t, g, s, []graph.NodeID{a, b})
	plain, err := MCPHPlain(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(plain.Period, 2, 1e-9) {
		t.Fatalf("plain period = %v, want 2 (star)", plain.Period)
	}
	full, err := MCPH(p)
	if err != nil {
		t.Fatal(err)
	}
	if full.Period >= plain.Period {
		t.Fatalf("cost update should win: full %v vs plain %v", full.Period, plain.Period)
	}
	if plain.Name != "MCPH-plain" {
		t.Fatalf("name = %q", plain.Name)
	}
}
