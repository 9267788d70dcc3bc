package steady

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
)

// multicastLBDirect solves the Multicast-LB program in the paper's own
// per-target formulation (normalised to throughput form): one flow
// x^i per target of value rho under shared optimistic loads
// n(e) >= x^i(e). Polynomial-size but with |targets| * |edges|
// variables, so multicastLB uses it only for target sets that are not
// broadcast-shaped and stay under its row cap, where the cut-covering
// master is known to wander; broadcast-shaped programs run the cut
// master at every size, which is far smaller and converges quickly
// when every node is a target. The cut master also falls back to this
// form at its round cap. Like the cut master it expects a reachable
// target set and the active edges in e.sc.edges.
//
// Variable indices are arithmetic — rho, then the n block in
// active-edge order, then one x block per target — so no per-target
// edge-to-variable map is ever built.
func (e *Evaluator) multicastLBDirect(p Problem) (*Bound, error) {
	g := p.G
	scale := g.MaxCost()
	if scale <= 0 {
		return infeasibleBound(), nil
	}
	sc := &e.sc
	edges := sc.edges
	m := lp.NewModel()
	m.Maximize()
	rhoVar := m.AddVar(1, "rho")
	nVar := sc.growVarOf(g.NumEdges())
	for _, id := range edges {
		nVar[id] = int32(m.AddVar(0, ""))
	}
	addPortRowsScaled(m, g, nVar, sc, scale)
	// Per-target flows of value rho, dominated by n. The x block of
	// target t starts at xBase = 1 + |edges| + t*|edges| and follows
	// active-edge rank order (sc.rank maps edge ID -> rank).
	if cap(sc.rank) < g.NumEdges() {
		sc.rank = make([]int32, g.NumEdges())
	}
	rank := sc.rank[:g.NumEdges()]
	for i, id := range edges {
		rank[id] = int32(i)
	}
	sc.nodes = g.AppendActiveNodes(sc.nodes[:0])
	nodes := sc.nodes
	for ti := range p.Targets {
		t := p.Targets[ti]
		xBase := m.NumVars()
		for range edges {
			m.AddVar(0, "")
		}
		xv := func(id int) int { return xBase + int(rank[id]) }
		for _, v := range nodes {
			terms := sc.terms[:0]
			sc.buf = g.OutEdges(v, sc.buf[:0])
			for _, id := range sc.buf {
				terms = append(terms, lp.Term{Var: xv(id), Coef: 1})
			}
			sc.buf = g.InEdges(v, sc.buf[:0])
			for _, id := range sc.buf {
				terms = append(terms, lp.Term{Var: xv(id), Coef: -1})
			}
			switch v {
			case p.Source:
				terms = append(terms, lp.Term{Var: rhoVar, Coef: -1})
			case t:
				terms = append(terms, lp.Term{Var: rhoVar, Coef: 1})
			}
			sc.terms = terms[:0]
			if len(terms) == 0 {
				continue
			}
			m.AddRow(lp.EQ, 0, terms...)
		}
		for _, id := range edges {
			m.AddRow(lp.LE, 0, lp.Term{Var: xv(id), Coef: 1}, lp.Term{Var: int(nVar[id]), Coef: -1})
		}
	}
	sol, err := m.SolveWith(e.ws)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("steady: MulticastLB direct: unexpected LP status %v", sol.Status)
	}
	rho := sol.X[rhoVar]
	if rho <= cutTol {
		return nil, errors.New("steady: MulticastLB direct: zero throughput on a reachable instance")
	}
	loads := make([]float64, g.NumEdges())
	for _, id := range edges {
		loads[id] = math.Max(0, sol.X[nVar[id]]) / rho
	}
	b := &Bound{Period: scale / rho, EdgeLoad: loads, Rounds: 1}
	b.noteSolve(sol)
	return b, nil
}
