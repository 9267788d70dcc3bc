package steady

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/tiers"
)

// promoteTally counts what checkPromote saw.
type promoteTally struct {
	trials  int     // promotion trials checked
	grown   int     // trials that grew the stored master
	dests   int     // destinations of those grown masters
	surplus int     // of which delivered more than rho before the trim
	worst   float64 // largest relative period difference from a cold solve
}

// checkPromote runs the promotion trial extras+[c] on ev, which may grow
// its stored master, and checks it against a fresh evaluator's cold
// solve: same feasibility, period within 1e-9 relative, and an EdgeLoad
// that loads no node's in-port or out-port beyond Period(1+1e-9). A
// trial that grows the stored master is first replayed on a clone of
// ev, where every destination's trimmed path rates must deliver exactly
// one message per period (the paper's = rows), surplus or not.
func checkPromote(ev *Evaluator, p Problem, extras []graph.NodeID, c graph.NodeID, tally *promoteTally) (*Bound, error) {
	grown := append(slices.Clip(extras), c)
	origins := append([]graph.NodeID{p.Source}, grown...)
	fp := fingerprintGraph(p.G)
	targets := slices.Sorted(slices.Values(p.Targets))
	if k := ev.ms.promotionsTo(fp, targets, origins); k > 0 {
		tally.grown++
		if err := checkDelivery(ev.Clone(), p, origins, k, tally); err != nil {
			return nil, fmt.Errorf("extras %v: %w", grown, err)
		}
	}
	tally.trials++
	warm, err := ev.PromoteSource(p, extras, c)
	if err != nil {
		return nil, fmt.Errorf("warm %v: %w", grown, err)
	}
	cold, err := NewEvaluator().MultiSourceUB(p, grown)
	if err != nil {
		return nil, fmt.Errorf("cold %v: %w", grown, err)
	}
	if warm.Infeasible() != cold.Infeasible() {
		return nil, fmt.Errorf("extras %v: warm infeasible %v, cold %v", grown, warm.Infeasible(), cold.Infeasible())
	}
	if warm.Infeasible() {
		return warm, nil
	}
	rel := math.Abs(warm.Period-cold.Period) / cold.Period
	if rel > 1e-9 {
		return nil, fmt.Errorf("extras %v: warm period %v, cold %v", grown, warm.Period, cold.Period)
	}
	tally.worst = max(tally.worst, rel)
	if err := checkPortLoads(p.G, warm); err != nil {
		return nil, fmt.Errorf("extras %v: %w", grown, err)
	}
	return warm, nil
}

// checkDelivery grows ev's stored master by the last k of origins the
// way MultiSourceUB does and checks the trimmed rates of the final
// solution: every destination's paths deliver one message per period.
func checkDelivery(ev *Evaluator, p Problem, origins []graph.NodeID, k int, tally *promoteTally) error {
	ms := ev.ms
	var sol *lp.Solution
	for _, c := range origins[len(origins)-k:] {
		var err error
		if ms, sol, err = ev.growMS(ms, p.G, c, &Bound{}); err != nil {
			return err
		}
	}
	rho := sol.X[ms.rhoVar]
	raw := make([]float64, len(ms.dests))
	got := make([]float64, len(ms.dests))
	for i, y := range ms.rates(sol) {
		raw[ms.cols[i].dest] += math.Max(0, sol.X[ms.yVar[i]]) / rho
		got[ms.cols[i].dest] += y
	}
	tally.dests += len(ms.dests)
	for di, d := range ms.dests {
		if raw[di] > 1+1e-9 {
			tally.surplus++
		}
		if math.Abs(got[di]-1) > 1e-9 {
			return fmt.Errorf("destination %s receives %v messages per period (untrimmed %v), want 1", p.G.Name(d.node), got[di], raw[di])
		}
	}
	return nil
}

// checkPortLoads reports an in-port or out-port that b's EdgeLoad
// occupies beyond b.Period(1+1e-9).
func checkPortLoads(g *graph.Graph, b *Bound) error {
	in := make([]float64, g.NumNodes())
	out := make([]float64, g.NumNodes())
	for id, load := range b.EdgeLoad {
		if load < 0 {
			return fmt.Errorf("edge %d carries negative load %v", id, load)
		}
		e := g.Edge(id)
		in[e.To] += load * e.Cost
		out[e.From] += load * e.Cost
	}
	limit := b.Period * (1 + 1e-9)
	for v := range in {
		if in[v] > limit || out[v] > limit {
			return fmt.Errorf("node %s occupies in %v, out %v per period %v", g.Name(graph.NodeID(v)), in[v], out[v], b.Period)
		}
	}
	return nil
}

// augmentedSourcesTrials runs AUGMENTED SOURCES' own trial sequence on
// ev (the loop of heur.AugmentedSources, which this package cannot
// import): score the non-sources by aggregate inflow, try them in
// order, accept the first that improves the period by more than 1e-6
// relative, and start the next round from it. Every trial goes
// through checkPromote. It returns the accepted promotions.
func augmentedSourcesTrials(ev *Evaluator, p Problem, tally *promoteTally) ([]graph.NodeID, error) {
	best, err := ev.MultiSourceUB(p, nil)
	if err != nil {
		return nil, err
	}
	var sources []graph.NodeID
	isSource := map[graph.NodeID]bool{p.Source: true}
	for improved := !best.Infeasible(); improved; {
		improved = false
		type scored struct {
			node  graph.NodeID
			value float64
		}
		var order []scored
		for _, m := range p.G.ActiveNodes() {
			if !isSource[m] {
				order = append(order, scored{m, AggregateInflowAt(p.G, best.EdgeLoad, m)})
			}
		}
		sort.Slice(order, func(i, j int) bool {
			if order[i].value != order[j].value {
				return order[i].value > order[j].value
			}
			return order[i].node < order[j].node
		})
		for _, cand := range order {
			trial, err := checkPromote(ev, p, sources, cand.node, tally)
			if err != nil {
				return nil, err
			}
			if trial.Period < best.Period-1e-6*(1+best.Period) {
				best = trial
				sources = append(sources, cand.node)
				isSource[cand.node] = true
				improved = true
				break
			}
		}
	}
	return sources, nil
}

// randomChains runs chains random promotion chains of up to 4
// candidates on ev, each step a trial on the previous step's sources
// and, half the time, a sibling trial on the same sources first.
func randomChains(ev *Evaluator, p Problem, rng *rand.Rand, chains int, tally *promoteTally) error {
	var cands []graph.NodeID
	for _, v := range p.G.ActiveNodes() {
		if v != p.Source {
			cands = append(cands, v)
		}
	}
	for k := 0; k < chains; k++ {
		perm := rng.Perm(len(cands))
		n := min(1+rng.Intn(4), len(perm))
		var extras []graph.NodeID
		for i := 0; i < n; i++ {
			c := cands[perm[i]]
			if i+1 < len(perm) && rng.Intn(2) == 0 {
				if _, err := checkPromote(ev, p, extras, cands[perm[len(perm)-1-i]], tally); err != nil {
					return err
				}
			}
			if _, err := checkPromote(ev, p, extras, c, tally); err != nil {
				return err
			}
			extras = append(extras, c)
		}
	}
	return nil
}

// TestPromoteWarmMatchesCold pins the grown path master against cold
// builds on the Figure 11 platforms: on tiers.Small and tiers.Big (seeds
// 1-3) at the six Figure 11 densities, AUGMENTED SOURCES' own trials
// and random promotion chains on one evaluator must each match a fresh
// evaluator's cold MultiSourceUB to 1e-9, with a load profile that
// respects every port and delivers one message per destination.
func TestPromoteWarmMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 11 platforms: many LP solves")
	}
	var tally promoteTally
	for _, cfg := range []tiers.Config{tiers.Small(1), tiers.Small(2), tiers.Small(3), tiers.Big(1), tiers.Big(2), tiers.Big(3)} {
		pl, err := tiers.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for di, density := range []float64{0.05, 0.2, 0.4, 0.6, 0.8, 1.0} {
			rng := rand.New(rand.NewSource(1000*cfg.Seed + int64(di)))
			p, err := NewProblem(pl.G, pl.Source, pl.RandomTargets(rng, density))
			if err != nil {
				t.Fatal(err)
			}
			ev := NewEvaluator()
			if _, err := augmentedSourcesTrials(ev, p, &tally); err != nil {
				t.Fatalf("%d LAN hosts, seed %d, density %v: AUGMENTED SOURCES: %v", cfg.LANHosts, cfg.Seed, density, err)
			}
			if err := randomChains(ev, p, rng, 2, &tally); err != nil {
				t.Fatalf("%d LAN hosts, seed %d, density %v: chains: %v", cfg.LANHosts, cfg.Seed, density, err)
			}
		}
	}
	t.Logf("%d trials, %d grew the stored master (%d of their %d destinations trimmed), worst relative period difference %.2g",
		tally.trials, tally.grown, tally.surplus, tally.dests, tally.worst)
	if tally.grown == 0 {
		t.Fatal("no trial grew the stored master")
	}
}

// TestPromoteResetMatchesFresh pins Reset for the stored master: an
// evaluator that ran another problem's promotion chain and then stored
// the master of this problem's own MultiSourceUB(p, nil), and was
// Reset, answers a chain of promotion trials bit for bit like a fresh
// evaluator — which builds the first trial cold instead of growing the
// master the Reset dropped.
func TestPromoteResetMatchesFresh(t *testing.T) {
	pl, err := tiers.Generate(tiers.Small(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	other, err := NewProblem(pl.G, pl.Source, pl.RandomTargets(rng, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(pl.G, pl.Source, pl.RandomTargets(rng, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	chain := promotionChain(p, 4)
	used := NewEvaluator()
	if _, err := runChain(used, other, promotionChain(other, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := used.MultiSourceUB(p, nil); err != nil {
		t.Fatal(err)
	}
	used.Reset()
	got, err := runChain(used, p, chain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runChain(NewEvaluator(), p, chain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameBound(got[i], want[i]) {
			t.Fatalf("trial %d after Reset: period %v, fresh %v (or loads differ)", i, got[i].Period, want[i].Period)
		}
	}
}

// TestPromoteCancelMidGrowth stops an evaluator while it grows its
// stored master: the trial returns lp.ErrCanceled, and once the flag
// clears, a chain on the same evaluator matches a fresh one to 1e-9.
func TestPromoteCancelMidGrowth(t *testing.T) {
	pl, err := tiers.Generate(tiers.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(pl.G, pl.Source, pl.RandomTargets(rand.New(rand.NewSource(9)), 0.4))
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator()
	if _, err := ev.MultiSourceUB(p, nil); err != nil {
		t.Fatal(err)
	}
	chain := promotionChain(p, 3)
	var stop atomic.Bool
	stop.Store(true)
	ev.SetStop(&stop)
	if ev.ms.promotionsTo(fingerprintGraph(p.G), slices.Sorted(slices.Values(p.Targets)), []graph.NodeID{p.Source, chain[0]}) != 1 {
		t.Fatal("the trial would not grow the stored master")
	}
	if _, err := ev.PromoteSource(p, nil, chain[0]); !errors.Is(err, lp.ErrCanceled) {
		t.Fatalf("PromoteSource under stop = %v, want lp.ErrCanceled", err)
	}
	stop.Store(false)
	got, err := runChain(ev, p, chain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runChain(NewEvaluator(), p, chain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i].Period-want[i].Period) > 1e-9*want[i].Period {
			t.Fatalf("trial %d after cancel: period %v, fresh %v", i, got[i].Period, want[i].Period)
		}
	}
}

// promotionChain picks n promotion candidates of p: the non-targets
// first (they take the appended >= rows), then targets, by node ID.
func promotionChain(p Problem, n int) []graph.NodeID {
	var chain, targets []graph.NodeID
	for _, v := range p.G.ActiveNodes() {
		switch {
		case v == p.Source:
		case slices.Contains(p.Targets, v):
			targets = append(targets, v)
		default:
			chain = append(chain, v)
		}
	}
	chain = append(chain, targets...)
	return chain[:min(n, len(chain))]
}

// runChain promotes chain one node at a time on ev, trying each
// step's sibling (the next node of the chain) before the step itself,
// and returns every bound in order.
func runChain(ev *Evaluator, p Problem, chain []graph.NodeID) ([]*Bound, error) {
	var out []*Bound
	for i, c := range chain {
		var b *Bound
		var err error
		if i+1 < len(chain) {
			if b, err = ev.PromoteSource(p, chain[:i], chain[i+1]); err != nil {
				return nil, err
			}
			out = append(out, b)
		}
		if b, err = ev.PromoteSource(p, chain[:i], c); err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// sameBound reports whether two bounds agree bit for bit in period and
// loads.
func sameBound(a, b *Bound) bool {
	if math.Float64bits(a.Period) != math.Float64bits(b.Period) || len(a.EdgeLoad) != len(b.EdgeLoad) {
		return false
	}
	for i := range a.EdgeLoad {
		if math.Float64bits(a.EdgeLoad[i]) != math.Float64bits(b.EdgeLoad[i]) {
			return false
		}
	}
	return true
}
