package whatif

import (
	"math"
	"testing"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/steady"
	"repro/internal/tiers"
)

// checkDominated cross-checks every dominated result against a cold
// Multicast-LB solve of the perturbed platform on a fresh evaluator —
// the same feasibility, and the period to 1e-9 relative — and that the
// scenario solver statistics count one evaluation per solved scenario
// and none for a dominated one. It returns the number of dominated
// scenarios.
func checkDominated(t testing.TB, base *Baseline, results []Result, stats steady.SolveStats) int {
	t.Helper()
	p := base.Problem
	dominated, evaluated := 0, 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %+v: %v", r.Scenario, r.Err)
		}
		if !r.Dominated {
			// A failure of the only target leaves nothing to evaluate.
			if !(r.TargetLost && len(p.Targets) == 1) {
				evaluated++
			}
			continue
		}
		dominated++
		if r.Delta != 0 || r.Period != base.LB.Period || r.Infeasible {
			t.Errorf("dominated %+v: period %v delta %v infeasible %v, want the baseline's %v and delta 0",
				r.Scenario, r.Period, r.Delta, r.Infeasible, base.LB.Period)
		}
		g := p.G.Clone()
		if _, err := r.Scenario.Delta().Apply(g); err != nil {
			t.Fatalf("dominated %+v: %v", r.Scenario, err)
		}
		cp, err := steady.NewProblem(g, p.Source, p.Targets)
		if err != nil {
			t.Fatalf("dominated %+v: %v", r.Scenario, err)
		}
		cold, err := steady.NewEvaluator().MulticastLB(cp)
		if err != nil {
			t.Fatalf("dominated %+v: cold solve: %v", r.Scenario, err)
		}
		if cold.Infeasible() != r.Infeasible {
			t.Errorf("dominated %+v: infeasible %v, cold solve says %v", r.Scenario, r.Infeasible, cold.Infeasible())
			continue
		}
		if d := math.Abs(r.Period-cold.Period) / math.Max(1, math.Abs(cold.Period)); d > 1e-9 {
			t.Errorf("dominated %+v: period %.17g, cold solve %.17g (rel %.3g > 1e-9)", r.Scenario, r.Period, cold.Period, d)
		}
	}
	if stats.Evaluations != evaluated {
		t.Errorf("scenario stats count %d evaluations, want one per solved scenario: %d", stats.Evaluations, evaluated)
	}
	return dominated
}

// TestDominatedScenariosMatchColdSolves pins Eval's dominance rule on
// Tiers platforms: node failures and link failures, slow-downs and
// speed-ups of every edge, in the direct regime of Multicast-LB (small
// platform, and big with sparse targets) and in its cutting-plane
// regime (big, broadcast-shaped).
func TestDominatedScenariosMatchColdSolves(t *testing.T) {
	if testing.Short() {
		t.Skip("tiers-platform analysis is slow")
	}
	cases := []struct {
		name    string
		cfg     tiers.Config
		density float64
		cuts    bool
	}{
		{"small", tiers.Small(3), 0.3, false},
		{"big-direct", tiers.Big(2), 0.05, false},
		{"big-cuts", tiers.Big(11), 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := tiers.Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			targets := pl.RandomTargets(exp.NewRNG(7, 1), tc.density)
			p, err := steady.NewProblem(pl.G, pl.Source, targets)
			if err != nil {
				t.Fatal(err)
			}
			ev := steady.NewEvaluator()
			base, err := NewBaseline(ev, p)
			if err != nil {
				t.Fatal(err)
			}
			if cuts := ev.Stats().Cuts > 0; cuts != tc.cuts {
				t.Fatalf("baseline took the cut regime = %v, want %v", cuts, tc.cuts)
			}
			cfg := Config{NodeFailures: true, EdgeFactors: []float64{0, 2, 0.5}, Workers: 2}
			scenarios := Enumerate(p.G, p.Source, cfg)
			results, stats, _ := Run(base, scenarios, cfg)
			n := checkDominated(t, base, results, stats)
			t.Logf("%d of %d scenarios dominated", n, len(scenarios))
			if n == 0 {
				t.Errorf("no dominated scenario among %d", len(scenarios))
			}
		})
	}
}

// FuzzWhatifDominated cross-checks the dominance rule on random small
// platforms (a tree plus chords, one-way or full-duplex, so some
// scenarios cross the tree/general boundary) and random scenario
// families: every scenario answered from the baseline must agree with
// a cold solve of the perturbed platform on feasibility and, to 1e-9,
// on the period, and the solver statistics must count exactly the
// solved scenarios.
func FuzzWhatifDominated(f *testing.F) {
	f.Add([]byte{7, 1, 3, 9, 1, 14, 2, 30, 5, 11, 90, 41})
	f.Add([]byte{12, 3, 250, 8, 61, 3, 17, 99, 4, 200, 33, 12, 7})
	f.Add([]byte{5, 6, 5, 5, 5, 5, 5, 5, 5, 5, 129, 200, 4, 66})
	f.Add([]byte{18, 7, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1, 77, 190})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		pos := 2
		next := func() int {
			b := int(data[pos%len(data)])
			pos++
			return b
		}
		n := 3 + int(data[0])%14
		flags := data[1]
		bidir := flags&1 != 0
		chords := int(flags>>1) % 6

		g := graph.New()
		ids := g.AddNodes("n", n)
		cost := func() float64 { return 0.25 + float64(next()%32)*0.125 }
		for i := 1; i < n; i++ {
			p := ids[next()%i]
			if bidir {
				g.AddLink(p, ids[i], cost())
			} else {
				g.AddEdge(p, ids[i], cost())
			}
		}
		for c := 0; c < chords; c++ {
			u, v := ids[next()%n], ids[next()%n]
			if u != v {
				g.AddEdge(u, v, cost())
			}
		}
		var targets []graph.NodeID
		for _, v := range ids[1:] {
			if next()%3 == 0 {
				targets = append(targets, v)
			}
		}
		if len(targets) == 0 {
			targets = append(targets, ids[1+next()%(n-1)])
		}
		p, err := steady.NewProblem(g, ids[0], targets)
		if err != nil {
			t.Fatal(err)
		}

		family := next()
		cfg := Config{NodeFailures: family&1 != 0, Workers: 1 + next()%2}
		for i, f := range []float64{0, 0.5, 2, 4} {
			if family&(2<<i) != 0 {
				cfg.EdgeFactors = append(cfg.EdgeFactors, f)
			}
		}
		if !cfg.NodeFailures && len(cfg.EdgeFactors) == 0 {
			cfg.EdgeFactors = []float64{0}
		}
		base, err := NewBaseline(steady.NewEvaluator(), p)
		if err != nil {
			t.Fatal(err)
		}
		results, stats, _ := Run(base, Enumerate(g, p.Source, cfg), cfg)
		checkDominated(t, base, results, stats)
	})
}
