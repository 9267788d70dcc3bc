// Package heur implements the paper's polynomial-time heuristics for
// the Series-of-Multicasts problem (Sections 5.2 and 6):
//
//   - MCPH, the tree heuristic adapted from the Minimum Cost Path
//     Heuristic for Steiner trees, rewritten for the one-port metric
//     (the send time of a node is the sum of its outgoing tree edges);
//   - REDUCED BROADCAST, which starts from Broadcast-EB on the whole
//     platform and greedily removes the nodes contributing least to the
//     targets;
//   - AUGMENTED MULTICAST, which grows the target set with the nodes
//     contributing most in the Multicast-LB solution until broadcasting
//     over the grown set beats the current best;
//   - AUGMENTED SOURCES (Multisource MC), which promotes the most
//     loaded nodes of the MulticastMultiSource-UB solution to secondary
//     sources while this improves the period.
//
// All heuristics return a period in time-per-multicast; steady-state
// throughput is the reciprocal.
package heur

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/steady"
	"repro/internal/tree"
)

// improveTol is the relative threshold below which two LP periods are
// considered equal (floating-point guard for the paper's exact "<="
// acceptance tests).
const improveTol = 1e-6

// Result is the outcome of a heuristic run.
type Result struct {
	Name   string
	Period float64
	// Tree is the multicast tree built by tree-based heuristics (MCPH);
	// nil for the LP-based heuristics, whose schedules are flow-shaped.
	Tree *tree.Tree
	// Sources lists the promoted secondary sources (AUGMENTED SOURCES),
	// excluding the primary source. The order is the (deterministic)
	// promotion order.
	Sources []graph.NodeID
	// Kept lists the platform nodes retained (REDUCED BROADCAST) or
	// included (AUGMENTED MULTICAST) in the final broadcast platform,
	// in increasing node-ID order.
	Kept []graph.NodeID
	// Evals counts the LP/bound evaluations performed (including those
	// answered by an evaluator's cache).
	Evals int
	// Stats carries the LP-solver statistics of the run's evaluator.
	Stats steady.SolveStats
}

// Throughput returns 1/Period (0 when the heuristic failed to find a
// finite period).
func (r *Result) Throughput() float64 {
	if r == nil || r.Period <= 0 || math.IsInf(r.Period, 1) {
		return 0
	}
	return 1 / r.Period
}

// A Heuristic is a named algorithm for the Series problem.
type Heuristic struct {
	Name string
	Run  func(steady.Problem) (*Result, error)
}

// AllWith returns the paper's heuristic set in the order of Figure
// 11's legend (MCPH, Augm. MC, Red. BC, Multisource MC), the LP-based
// ones bound to ev, so the heuristics of one experiment cell reuse
// each other's cached bounds, pooled cuts and LP workspace. The
// evaluator (and hence the returned heuristics) must not be shared
// between goroutines.
func AllWith(ev *steady.Evaluator) []Heuristic {
	bind := func(f func(*steady.Evaluator, steady.Problem) (*Result, error)) func(steady.Problem) (*Result, error) {
		return func(p steady.Problem) (*Result, error) { return f(ev, p) }
	}
	return []Heuristic{
		{Name: "MCPH", Run: MCPH},
		{Name: "Augm. MC", Run: bind(AugmentedMulticast)},
		{Name: "Red. BC", Run: bind(ReducedBroadcast)},
		{Name: "Multisource MC", Run: bind(AugmentedSources)},
	}
}

// MCPH is the tree-based heuristic of Figure 9: grow a multicast tree
// from the source, repeatedly attaching the target whose bottleneck
// path from the current tree is cheapest under working edge costs that
// account for the one-port send occupation already committed at every
// node (adding a branch at node i makes all further branches from i
// more expensive; edges already in the tree are free).
func MCPH(p steady.Problem) (*Result, error) {
	return mcph(p, true)
}

// MCPHPlain is the ablation of MCPH without the paper's one-port cost
// update (Figure 9 lines 11-13): committed edges still become free, but
// branching at an already-busy sender costs nothing extra — the
// classical Steiner-style Minimum Cost Path Heuristic under the
// bottleneck metric. Comparing it against MCPH isolates the value of
// the paper's metric adaptation.
func MCPHPlain(p steady.Problem) (*Result, error) {
	res, err := mcph(p, false)
	if err != nil {
		return nil, err
	}
	res.Name = "MCPH-plain"
	return res, nil
}

func mcph(p steady.Problem, portAwareCosts bool) (*Result, error) {
	g := p.G
	if !g.ReachesAll(p.Source, p.Targets) {
		return nil, errors.New("heur: MCPH: some target unreachable")
	}
	cost := make([]float64, g.NumEdges())
	for _, id := range g.ActiveEdges() {
		cost[id] = g.Edge(id).Cost
	}
	w := func(e graph.Edge) float64 { return cost[e.ID] }

	inTree := map[graph.NodeID]bool{p.Source: true}
	treeNodes := []graph.NodeID{p.Source}
	var treeEdges []int
	remaining := make(map[graph.NodeID]bool, len(p.Targets))
	for _, t := range p.Targets {
		remaining[t] = true
	}

	for len(remaining) > 0 {
		dist, parent := g.MultiSourceBottleneck(treeNodes, w)
		best := graph.None
		for t := range remaining {
			if best == graph.None || dist[t] < dist[best] || (dist[t] == dist[best] && t < best) {
				best = t
			}
		}
		if math.IsInf(dist[best], 1) {
			return nil, fmt.Errorf("heur: MCPH: target %s became unreachable", g.Name(best))
		}
		path := g.WalkBack(parent, best)
		for _, id := range path {
			e := g.Edge(id)
			treeEdges = append(treeEdges, id)
			if !inTree[e.To] {
				inTree[e.To] = true
				treeNodes = append(treeNodes, e.To)
			}
		}
		delete(remaining, best)
		// Cost update (Figure 9, lines 11-13): committing edge (i,j)
		// adds its send time to every other out-edge of i, and the edge
		// itself becomes free for later targets.
		for _, id := range path {
			e := g.Edge(id)
			delta := cost[id]
			if portAwareCosts {
				for _, out := range g.OutEdges(e.From, nil) {
					cost[out] += delta
				}
			}
			cost[id] = 0
		}
	}

	tr := &tree.Tree{Root: p.Source, Edges: treeEdges}
	if err := tr.Validate(g, p.Source, p.Targets); err != nil {
		return nil, fmt.Errorf("heur: MCPH built an invalid tree: %w", err)
	}
	return &Result{Name: "MCPH", Period: tr.Period(g), Tree: tr}, nil
}

// ReducedBroadcast is the heuristic of Figure 6: broadcast to the whole
// platform, then repeatedly drop the non-target node with the smallest
// per-target traffic in the current Broadcast-EB solution, as long as
// the broadcast period does not degrade. The evaluator's cache and cut
// pools make the drop/re-broadcast inner loop incremental.
func ReducedBroadcast(ev *steady.Evaluator, p steady.Problem) (*Result, error) {
	g := p.G.Clone()
	res := &Result{Name: "Red. BC"}
	before := ev.Stats()
	best, err := ev.BroadcastEB(g, p.Source)
	res.Evals++
	if err != nil {
		return nil, err
	}
	isFixed := map[graph.NodeID]bool{p.Source: true}
	for _, t := range p.Targets {
		isFixed[t] = true
	}
	for improved := true; improved; {
		improved = false
		order := scoreCandidates(ev, g, best, p, candidatesNotFixed(g, isFixed), false)
		for _, m := range order {
			// Never disconnect the multicast targets: with an infinite
			// incumbent (stray unreachable nodes) any removal would
			// otherwise "not degrade" the period.
			g.Deactivate(m)
			reaches := g.ReachesAll(p.Source, p.Targets)
			g.Activate(m)
			if !reaches {
				continue
			}
			trial, err := ev.DropNodeBroadcast(g, p.Source, m)
			res.Evals++
			if err != nil {
				return nil, err
			}
			if trial.Period <= best.Period+improveTol*(1+best.Period) {
				g.Deactivate(m) // commit the trial
				best = trial
				improved = true
				break
			}
		}
	}
	res.Period = best.Period
	res.Kept = keptNodes(g)
	res.Stats = ev.Stats().Delta(before)
	return res, nil
}

// AugmentedMulticast is the heuristic of Figure 7: start from a
// broadcast over just {source} + targets, then grow that platform with
// the nodes carrying the most per-target traffic in the full-platform
// Multicast-LB solution, while this does not degrade the period. The
// evaluator's cache and cut pools make the add/re-broadcast inner loop
// incremental.
func AugmentedMulticast(ev *steady.Evaluator, p steady.Problem) (*Result, error) {
	full := p.G
	res := &Result{Name: "Augm. MC"}
	before := ev.Stats()
	lb, err := ev.MulticastLB(p)
	res.Evals++
	if err != nil {
		return nil, err
	}
	inSet := map[graph.NodeID]bool{p.Source: true}
	kept := []graph.NodeID{p.Source}
	for _, t := range p.Targets {
		inSet[t] = true
		kept = append(kept, t)
	}
	order := scoreCandidates(ev, full, lb, p, candidatesNotFixed(full, inSet), true)

	g := full.Clone()
	g.Restrict(kept)
	best, err := ev.BroadcastEB(g, p.Source)
	res.Evals++
	if err != nil {
		return nil, err
	}
	for improved := true; improved; {
		improved = false
		for _, m := range order {
			if inSet[m] {
				continue
			}
			trial, err := ev.AddNodeBroadcast(g, p.Source, m)
			res.Evals++
			if err != nil {
				return nil, err
			}
			if trial.Period <= best.Period+improveTol*(1+best.Period) {
				g.Activate(m) // commit the trial
				best = trial
				inSet[m] = true
				improved = true
				break
			}
		}
	}
	res.Period = best.Period
	res.Kept = keptNodes(g)
	res.Stats = ev.Stats().Delta(before)
	return res, nil
}

// AugmentedSources is the heuristic of Figure 8 (Multisource MC in the
// plots): repeatedly promote the node with the largest aggregate
// traffic in the current MulticastMultiSource-UB solution to a
// secondary source, while this does not degrade the period. Each
// promotion trial grows a copy of the evaluator's stored multisource
// master, the solved program of the current sources, by one source and
// re-solves it warm; a round's first trial first rebuilds that master
// for the source the previous round accepted (steady.Evaluator.
// MultiSourceUB).
func AugmentedSources(ev *steady.Evaluator, p steady.Problem) (*Result, error) {
	g := p.G
	res := &Result{Name: "Multisource MC"}
	before := ev.Stats()
	var sources []graph.NodeID
	best, err := ev.MultiSourceUB(p, sources)
	res.Evals++
	if err != nil {
		return nil, err
	}
	isSource := map[graph.NodeID]bool{p.Source: true}
	for improved := true; improved; {
		improved = false
		if best.Infeasible() {
			break
		}
		type scored struct {
			node  graph.NodeID
			value float64
		}
		var order []scored
		for _, m := range g.ActiveNodes() {
			if !isSource[m] {
				order = append(order, scored{m, steady.AggregateInflowAt(g, best.EdgeLoad, m)})
			}
		}
		sort.Slice(order, func(i, j int) bool {
			if order[i].value != order[j].value {
				return order[i].value > order[j].value
			}
			return order[i].node < order[j].node
		})
		for _, cand := range order {
			trial, err := ev.PromoteSource(p, sources, cand.node)
			res.Evals++
			if err != nil {
				return nil, err
			}
			// The paper accepts "<=", which is harmless in exact
			// arithmetic; with floating-point LP solutions an equality
			// acceptance promotes one useless source per round on pure
			// solver noise, so we require a real improvement.
			if trial.Period < best.Period-improveTol*(1+best.Period) {
				best = trial
				sources = append(sources, cand.node)
				isSource[cand.node] = true
				improved = true
				break
			}
		}
	}
	res.Period = best.Period
	res.Sources = sources
	res.Stats = ev.Stats().Delta(before)
	return res, nil
}

// keptNodes returns the active node set in increasing node-ID order
// (ActiveNodes already scans in ID order; the sort pins the contract
// for Result.Kept regardless of how the platform was built).
func keptNodes(g *graph.Graph) []graph.NodeID {
	kept := g.ActiveNodes()
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	return kept
}

// candidatesNotFixed returns the active nodes outside the fixed set.
func candidatesNotFixed(g *graph.Graph, fixed map[graph.NodeID]bool) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range g.ActiveNodes() {
		if !fixed[v] {
			out = append(out, v)
		}
	}
	return out
}

// scoreCandidates orders candidate nodes by their per-target traffic
// sum_{i in Ptarget} sum_{j in N^in(m)} x^{j,m}_i in the given bound's
// solution, recovering the per-target flows from the load profile
// (through the evaluator's pooled flow solver, so repeated scoring
// passes stop rebuilding a residual network per target). Ascending
// order when desc is false (REDUCED BROADCAST), descending otherwise
// (AUGMENTED MULTICAST).
func scoreCandidates(ev *steady.Evaluator, g *graph.Graph, b *steady.Bound, p steady.Problem, cands []graph.NodeID, desc bool) []graph.NodeID {
	if b.Infeasible() || len(cands) == 0 {
		return cands
	}
	flows := ev.RecoverUnitFlows(g, b.EdgeLoad, p.Source, p.Targets)
	score := make(map[graph.NodeID]float64, len(cands))
	for _, m := range cands {
		score[m] = steady.InflowAt(g, flows, m)
	}
	sort.Slice(cands, func(i, j int) bool {
		si, sj := score[cands[i]], score[cands[j]]
		if si != sj {
			if desc {
				return si > sj
			}
			return si < sj
		}
		return cands[i] < cands[j]
	})
	return cands
}
