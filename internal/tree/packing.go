package tree

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/lp"
)

// MaxPackTargets bounds the target count accepted by PackOptimal (the
// pricing oracle is exponential in it).
const MaxPackTargets = 14

// WeightedTree is a multicast tree with the rate (multicasts per time
// unit) routed through it.
type WeightedTree struct {
	Tree *Tree
	Rate float64
}

// Packing is an optimal weighted tree packing: the solution of the
// Series-of-Multicasts LP of Theorem 4.
type Packing struct {
	Trees      []WeightedTree
	Throughput float64
	Iterations int // column-generation rounds
	PoolSize   int // total trees priced into the master
}

// Period returns 1/Throughput.
func (p *Packing) Period() float64 {
	if p.Throughput <= 0 {
		return math.Inf(1)
	}
	return 1 / p.Throughput
}

// PackOptimal computes the exact optimal steady-state multicast
// throughput: the maximum of sum_k y_k over weighted multicast trees
// subject to the one-port occupation constraints (Theorem 4 shows this
// LP characterises the optimum, with at most 2|E| trees carrying
// weight). The exponentially many columns are handled by column
// generation: the restricted master is solved with the simplex of
// internal/lp, and the pricing problem — find the multicast tree of
// minimum dual-weighted cost — is the exact Steiner arborescence DP.
//
// Exponential in len(targets) (the paper proves the problem NP-hard);
// guarded by MaxPackTargets.
func PackOptimal(g *graph.Graph, source graph.NodeID, targets []graph.NodeID) (*Packing, error) {
	if len(targets) == 0 {
		return nil, errors.New("tree: no targets")
	}
	if len(targets) > MaxPackTargets {
		return nil, ErrTooLarge
	}
	if !g.ReachesAll(source, targets) {
		return nil, errors.New("tree: some target unreachable from the source")
	}

	first, _, err := MinSteinerArborescence(g, source, targets, graph.CostWeight)
	if err != nil {
		return nil, err
	}
	nodes := g.ActiveNodes()
	master := newPackMaster(g, nodes)
	pool := []*Tree{first}
	inPool := map[string]bool{treeKey(first): true}
	master.addColumn(first)

	ws := lp.NewWorkspace()
	var basis lp.Basis
	const maxRounds = 1000
	for round := 1; ; round++ {
		if round > maxRounds {
			return nil, errors.New("tree: column generation did not converge")
		}
		obj, rates, alpha, beta, err := master.solve(ws, &basis)
		if err != nil {
			return nil, err
		}
		// Pricing: the entering tree minimises
		// sum_{(u,v) in tree} c(u,v) * (beta(u) + alpha(v)).
		w := func(e graph.Edge) float64 {
			d := beta[e.From] + alpha[e.To]
			if d < 0 {
				d = 0
			}
			return e.Cost * d
		}
		cand, cost, err := MinSteinerArborescence(g, source, targets, w)
		if err != nil {
			return nil, err
		}
		if cost >= 1-1e-7 || inPool[treeKey(cand)] {
			// No improving column: the master is optimal.
			pk := &Packing{Throughput: obj, Iterations: round, PoolSize: len(pool)}
			for i, y := range rates {
				if y > 1e-9 {
					pk.Trees = append(pk.Trees, WeightedTree{Tree: pool[i].Clone(), Rate: y})
				}
			}
			sort.Slice(pk.Trees, func(a, b int) bool { return pk.Trees[a].Rate > pk.Trees[b].Rate })
			return pk, nil
		}
		pool = append(pool, cand)
		inPool[treeKey(cand)] = true
		master.addColumn(cand)
	}
}

// packMaster is the restricted master LP over a growing tree pool:
// maximise sum y_k subject to per-node receive and send occupations
// <= 1. Rows are laid down once; every priced-in tree joins as a
// column and each round re-solves warm from the previous basis.
type packMaster struct {
	g       *graph.Graph
	nodes   []graph.NodeID
	m       *lp.Model
	recvRow map[graph.NodeID]int
	sendRow map[graph.NodeID]int
	yVar    []int
}

func newPackMaster(g *graph.Graph, nodes []graph.NodeID) *packMaster {
	pm := &packMaster{
		g:       g,
		nodes:   nodes,
		m:       lp.NewModel(),
		recvRow: make(map[graph.NodeID]int, len(nodes)),
		sendRow: make(map[graph.NodeID]int, len(nodes)),
	}
	pm.m.Maximize()
	for _, v := range nodes {
		pm.recvRow[v] = pm.m.AddRow(lp.LE, 1)
		pm.sendRow[v] = pm.m.AddRow(lp.LE, 1)
	}
	return pm
}

func (pm *packMaster) addColumn(t *Tree) {
	entries := make([]lp.RowCoef, 0, 2*len(t.Edges))
	for _, id := range t.Edges {
		e := pm.g.Edge(id)
		entries = append(entries, lp.RowCoef{Row: pm.sendRow[e.From], Coef: e.Cost})
		entries = append(entries, lp.RowCoef{Row: pm.recvRow[e.To], Coef: e.Cost})
	}
	pm.yVar = append(pm.yVar, pm.m.AddColumn(1, fmt.Sprintf("y%d", len(pm.yVar)), entries...))
}

// solve re-solves the master (warm from *basis when available) and
// returns the objective, the tree rates, and the duals alpha (receive
// rows) and beta (send rows) indexed by node.
func (pm *packMaster) solve(ws *lp.Workspace, basis *lp.Basis) (float64, []float64, []float64, []float64, error) {
	sol, err := pm.m.SolveFrom(ws, *basis)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	if sol.Status != lp.Optimal {
		return 0, nil, nil, nil, fmt.Errorf("tree: master LP status %v", sol.Status)
	}
	*basis = sol.Basis
	rates := make([]float64, len(pm.yVar))
	for i, v := range pm.yVar {
		rates[i] = math.Max(0, sol.X[v])
	}
	alpha := make([]float64, pm.g.NumNodes())
	beta := make([]float64, pm.g.NumNodes())
	for _, v := range pm.nodes {
		alpha[v] = math.Max(0, sol.Dual[pm.recvRow[v]])
		beta[v] = math.Max(0, sol.Dual[pm.sendRow[v]])
	}
	return sol.Objective, rates, alpha, beta, nil
}

func treeKey(t *Tree) string {
	ids := append([]int(nil), t.Edges...)
	sort.Ints(ids)
	var sb strings.Builder
	for _, id := range ids {
		sb.WriteString(strconv.Itoa(id))
		sb.WriteByte(',')
	}
	return sb.String()
}
