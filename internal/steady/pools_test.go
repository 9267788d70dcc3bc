package steady

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/tiers"
)

// poolPlatform builds a random platform from next: a random tree of
// n = 3..16 nodes rooted at node 0 (one-way arcs or full-duplex links)
// plus up to 2n chords, a random target set and up to two
// intermediate sources for MultiSourceUB.
func poolPlatform(next func() int) (Problem, []graph.NodeID) {
	n := 3 + next()%14
	flags := next()
	g := graph.New()
	ids := g.AddNodes("n", n)
	cost := func() float64 { return 0.25 + float64(next()%32)*0.125 }
	for i := 1; i < n; i++ {
		p := ids[next()%i]
		if flags&1 != 0 {
			g.AddLink(p, ids[i], cost())
		} else {
			g.AddEdge(p, ids[i], cost())
		}
	}
	for c := (flags >> 1) % (2*n + 1); c > 0; c-- {
		if u, v := ids[next()%n], ids[next()%n]; u != v {
			g.AddEdge(u, v, cost())
		}
	}
	var targets, extras []graph.NodeID
	for _, v := range ids[1:] {
		if next()%2 == 0 {
			targets = append(targets, v)
		}
	}
	if len(targets) == 0 {
		targets = append(targets, ids[1+next()%(n-1)])
	}
	for k := next() % 3; k > 0; k-- {
		if x := ids[1+next()%(n-1)]; !slices.Contains(extras, x) {
			extras = append(extras, x)
		}
	}
	p, err := NewProblem(g, ids[0], targets)
	if err != nil {
		panic(err)
	}
	return p, extras
}

// poolsAcrossPlatforms fills one evaluator's cut and path pools on
// platform a, then evaluates platform b, with the same source ID, on
// that evaluator and on a fresh one: Multicast-LB in the cut and the
// direct form and through the dispatch, Broadcast-EB and
// MultiSourceUB must agree on feasibility and to 1e-9 on the period.
// The pools are keyed by source ID only, so every pooled entry from a
// must be re-validated against b or skipped.
func poolsAcrossPlatforms(a Problem, xa []graph.NodeID, b Problem, xb []graph.NodeID) error {
	shared := lpEvaluator()
	if _, err := shared.BroadcastEB(a.G, a.Source); err != nil {
		return fmt.Errorf("platform a: BroadcastEB: %w", err)
	}
	if _, err := lbForm(shared, a, shared.multicastLBCuts); err != nil {
		return fmt.Errorf("platform a: cut form: %w", err)
	}
	if _, err := shared.MultiSourceUB(a, xa); err != nil {
		return fmt.Errorf("platform a: MultiSourceUB: %w", err)
	}

	fresh := lpEvaluator()
	for _, c := range []struct {
		name string
		eval func(ev *Evaluator) (*Bound, error)
	}{
		{"cut form", func(ev *Evaluator) (*Bound, error) { return lbForm(ev, b, ev.multicastLBCuts) }},
		{"direct form", func(ev *Evaluator) (*Bound, error) { return lbForm(ev, b, ev.multicastLBDirect) }},
		{"MulticastLB", func(ev *Evaluator) (*Bound, error) { return ev.MulticastLB(b) }},
		{"BroadcastEB", func(ev *Evaluator) (*Bound, error) { return ev.BroadcastEB(b.G, b.Source) }},
		{"MultiSourceUB", func(ev *Evaluator) (*Bound, error) { return ev.MultiSourceUB(b, xb) }},
	} {
		got, err := c.eval(shared)
		if err != nil {
			return fmt.Errorf("%s on b, shared evaluator: %w", c.name, err)
		}
		want, err := c.eval(fresh)
		if err != nil {
			return fmt.Errorf("%s on b, fresh evaluator: %w", c.name, err)
		}
		if got.Infeasible() != want.Infeasible() {
			return fmt.Errorf("%s on b: shared infeasible=%v, fresh infeasible=%v", c.name, got.Infeasible(), want.Infeasible())
		}
		if d := relDiff(got.Period, want.Period); !got.Infeasible() && d > 1e-9 {
			return fmt.Errorf("%s on b: shared %.17g vs fresh %.17g (rel diff %.3g > 1e-9)", c.name, got.Period, want.Period, d)
		}
	}
	return nil
}

// TestEvaluatorPoolsAcrossPlatforms is the property behind
// poolsAcrossPlatforms on random platform pairs: an evaluator that
// served one platform answers the next one, whatever its size, as a
// fresh evaluator does.
func TestEvaluatorPoolsAcrossPlatforms(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	next := func() int { return r.Intn(256) }
	for pair := 0; pair < 200; pair++ {
		a, xa := poolPlatform(next)
		b, xb := poolPlatform(next)
		if err := poolsAcrossPlatforms(a, xa, b, xb); err != nil {
			t.Fatalf("pair %d (a: %d nodes, %d edges; b: %d nodes, %d edges): %v", pair,
				a.G.NumNodes(), a.G.NumEdges(), b.G.NumNodes(), b.G.NumEdges(), err)
		}
	}
}

// TestBroadcastPoolsTiersThenRing is a regression test: Broadcast-EB
// on tiers.Big(1) (65 nodes, 140 edges) pools cuts whose edge IDs do
// not exist on a 50-node bidirectional ring (100 edges); the ring's
// broadcast must skip them and match a fresh evaluator.
func TestBroadcastPoolsTiersThenRing(t *testing.T) {
	pl, err := tiers.Generate(tiers.Big(1))
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator()
	if _, err := ev.BroadcastEB(pl.G, pl.Source); err != nil {
		t.Fatal(err)
	}
	if ev.Stats().Cuts == 0 {
		t.Fatal("the Tiers broadcast pooled no cuts")
	}
	ring := graph.New()
	ids := ring.AddNodes("r", 50)
	for i := range ids {
		ring.AddLink(ids[i], ids[(i+1)%len(ids)], 1+float64(i%5))
	}
	got, err := ev.BroadcastEB(ring, pl.Source)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEvaluator().BroadcastEB(ring, pl.Source)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.Period, want.Period); d > 1e-9 {
		t.Fatalf("ring after Tiers: period %.17g, fresh evaluator %.17g (rel diff %.3g)", got.Period, want.Period, d)
	}
}
