package steady

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/lp"
)

// multiSourceUB solves the paper's MulticastMultiSource-UB program
// (Section 5.2.3): a scatter-like multicast in which an ordered list of
// intermediate sources {s_0 = Psource, s_1, ..., s_l} relays full
// copies of the message. Each intermediate source s_i must receive the
// entire message from strictly earlier sources (equations (1)/(2) of
// the program; pipelining makes the ordering legal in steady state),
// and every other target receives the entire message as a sum of
// contributions from the intermediate sources (equations (1b)/(2b)).
// Link occupation counts every commodity separately (equation (10)),
// so the resulting period is achievable by an actual schedule, like
// the plain scatter bound.
//
// extras lists the intermediate sources other than p.Source, in the
// order the AUGMENTED SOURCES heuristic promoted them. With no extras
// the program reduces to ScatterUB.
//
// Implementation note: the paper's edge-flow formulation carries one
// conservation row per (origin, node) pair with a zero right-hand
// side; at platform scale that produces a degenerate plateau that
// wrecks the simplex. Since every commodity is an origin-to-destination
// flow, the program is solved here in its equivalent path form by
// column generation (flow decomposition equivalence, DESIGN.md Section
// 4.3): the master LP has one convexity row per destination plus the
// one-port rows, and the pricing problem is a cheapest path under
// dual-adjusted edge costs, solved by one Dijkstra per origin. The
// master is built once and only grows: every pricing round appends its
// improving paths as columns (lp.Model.AddColumn) and re-solves warm
// from the previous basis. The master is seeded with the evaluator's
// pooled path columns, and every priced-in path joins the pool.
func (e *Evaluator) multiSourceUB(p Problem, extras []graph.NodeID) (*Bound, error) {
	g := p.G
	origins := append([]graph.NodeID{p.Source}, extras...)
	seen := make(map[graph.NodeID]bool, len(origins))
	for _, s := range origins {
		if !g.Active(s) {
			return nil, fmt.Errorf("steady: intermediate source %s is not active", g.Name(s))
		}
		if seen[s] {
			return nil, errors.New("steady: duplicate intermediate source")
		}
		seen[s] = true
	}

	// Destinations: extra sources receive from strictly earlier origins,
	// plain targets from any origin.
	originIndex := make(map[graph.NodeID]int, len(origins))
	for i, s := range origins {
		originIndex[s] = i
	}
	var dests []msDest
	for i, s := range origins[1:] {
		dests = append(dests, msDest{node: s, maxOrigin: i + 1})
	}
	for _, t := range p.Targets {
		if _, isOrigin := originIndex[t]; !isOrigin {
			dests = append(dests, msDest{node: t, maxOrigin: len(origins)})
		}
	}
	if len(dests) == 0 {
		return &Bound{Period: 0, EdgeLoad: make([]float64, g.NumEdges())}, nil
	}
	// Every destination must ultimately be fed from the primary source.
	destNodes := make([]graph.NodeID, len(dests))
	destIndex := make(map[graph.NodeID]int, len(dests))
	for i, d := range dests {
		destNodes[i] = d.node
		destIndex[d.node] = i
	}
	if !g.ReachesAll(p.Source, destNodes) {
		return infeasibleBound(), nil
	}

	m := newMSMaster(g, dests)

	var pool []msPath
	poolKey := make(map[string]bool)
	addPath := func(di int, edges []int, origin graph.NodeID) bool {
		key := pathPoolKey(graph.NodeID(di), 0, edges)
		if poolKey[key] {
			return false
		}
		poolKey[key] = true
		pool = append(pool, msPath{dest: di, edges: append([]int(nil), edges...)})
		m.addColumn(di, pool[len(pool)-1].edges)
		e.recordPath(p.Source, origin, dests[di].node, edges)
		return true
	}
	// Seed columns: pooled paths whose origin may still feed their
	// destination under the current promotion order (and that are still
	// active origin->destination paths of g; the pools are keyed by
	// source ID only, so a path may come from another platform), then a
	// cheapest path from the primary source to each destination (origin
	// 0 is allowed for every destination).
	for _, s := range e.paths[p.Source] {
		di, ok := destIndex[s.dest]
		if !ok {
			continue
		}
		oi, ok := originIndex[s.origin]
		if !ok || oi >= dests[di].maxOrigin {
			continue
		}
		if isActivePath(g, s.origin, s.dest, s.edges) {
			addPath(di, s.edges, s.origin)
		}
	}
	_, parent := g.ShortestPaths(p.Source, graph.CostWeight)
	for di, d := range dests {
		addPath(di, g.WalkBack(parent, d.node), p.Source)
	}

	bound := &Bound{}
	var basis lp.Basis
	const maxRounds = 400
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, errors.New("steady: MultiSourceUB column generation did not converge")
		}
		period, loads, mu, alpha, beta, err := m.solve(e.ws, &basis, bound, pool)
		if err != nil {
			return nil, err
		}
		bound.Rounds = round + 1
		// Pricing: a path for destination d enters if its dual-adjusted
		// cost sum c(e)*(beta(tail) + alpha(head)) undercuts the
		// destination's convexity dual mu.
		w := func(e graph.Edge) float64 {
			d := beta[e.From] + alpha[e.To]
			if d < 0 {
				d = 0
			}
			return e.Cost * d
		}
		dist := make([][]float64, len(origins))
		par := make([][]int, len(origins))
		for j, s := range origins {
			dist[j], par[j] = g.ShortestPaths(s, w)
		}
		improved := false
		for di, d := range dests {
			bestJ, bestCost := -1, math.Inf(1)
			for j := 0; j < d.maxOrigin; j++ {
				if c := dist[j][d.node]; c < bestCost {
					bestJ, bestCost = j, c
				}
			}
			if bestJ >= 0 && bestCost < mu[di]-1e-9*(1+math.Abs(mu[di])) {
				if addPath(di, g.WalkBack(par[bestJ], d.node), origins[bestJ]) {
					improved = true
				}
			}
		}
		if !improved {
			bound.Period = period
			bound.EdgeLoad = loads
			return bound, nil
		}
	}
}

// pooledPath is a path column discovered by an earlier solve: an
// origin-to-destination path, reusable as a seed column whenever its
// origin is still allowed to feed its destination.
type pooledPath struct {
	origin, dest graph.NodeID
	edges        []int
}

type msDest struct {
	node      graph.NodeID
	maxOrigin int
}

type msPath struct {
	dest  int
	edges []int
}

// msMaster is the restricted path master in throughput-normalised form:
// maximise rho subject to one convexity row per destination (its
// paths' rates sum to rho) and the one-port occupation rows (<= 1).
// The model is incremental: rows are laid down once, and each priced-in
// path joins as a column.
type msMaster struct {
	g        *graph.Graph
	dests    []msDest
	m        *lp.Model
	rhoVar   int
	coverRow []int
	inRow    map[graph.NodeID]int
	outRow   map[graph.NodeID]int
	yVar     []int
}

func newMSMaster(g *graph.Graph, dests []msDest) *msMaster {
	m := lp.NewModel()
	m.Maximize()
	ms := &msMaster{
		g:        g,
		dests:    dests,
		m:        m,
		rhoVar:   m.AddVar(1, "rho"),
		coverRow: make([]int, len(dests)),
		inRow:    make(map[graph.NodeID]int),
		outRow:   make(map[graph.NodeID]int),
	}
	for di := range dests {
		ms.coverRow[di] = m.AddRow(lp.EQ, 0, lp.Term{Var: ms.rhoVar, Coef: -1})
	}
	// Port rows for every active node, even those no current column
	// touches: future columns may, and rows cannot be appended to
	// retroactively without invalidating warm starts.
	for _, v := range g.ActiveNodes() {
		ms.inRow[v] = m.AddRow(lp.LE, 1)
		ms.outRow[v] = m.AddRow(lp.LE, 1)
	}
	return ms
}

// addColumn adds one path column: rate y >= 0 entering destination
// di's convexity row with coefficient 1 and loading the one-port rows
// of every edge on the path.
func (ms *msMaster) addColumn(di int, edges []int) {
	entries := make([]lp.RowCoef, 0, 2*len(edges)+1)
	entries = append(entries, lp.RowCoef{Row: ms.coverRow[di], Coef: 1})
	for _, id := range edges {
		e := ms.g.Edge(id)
		entries = append(entries, lp.RowCoef{Row: ms.outRow[e.From], Coef: e.Cost})
		entries = append(entries, lp.RowCoef{Row: ms.inRow[e.To], Coef: e.Cost})
	}
	ms.yVar = append(ms.yVar, ms.m.AddColumn(0, "", entries...))
}

// solve re-solves the master (warm from *basis when available), updates
// *basis, and returns the period 1/rho, the per-edge per-multicast
// loads, the convexity duals mu (sign-adjusted so that a path prices in
// when its dual-weighted cost undercuts mu), and the non-negative port
// duals alpha (receive side) and beta (send side).
func (ms *msMaster) solve(ws *lp.Workspace, basis *lp.Basis, bound *Bound, pool []msPath) (float64, []float64, []float64, []float64, []float64, error) {
	var sol *lp.Solution
	var err error
	if basis.Empty() {
		sol, err = ms.m.SolveWith(ws)
	} else {
		sol, err = ms.m.SolveFrom(ws, *basis)
	}
	if err != nil {
		return 0, nil, nil, nil, nil, err
	}
	if sol.Status != lp.Optimal {
		return 0, nil, nil, nil, nil, fmt.Errorf("steady: MultiSourceUB master: unexpected LP status %v", sol.Status)
	}
	bound.noteSolve(sol)
	*basis = sol.Basis
	rho := sol.X[ms.rhoVar]
	if rho <= cutTol {
		return 0, nil, nil, nil, nil, errors.New("steady: MultiSourceUB: zero throughput on a reachable instance")
	}
	loads := make([]float64, ms.g.NumEdges())
	for i, pth := range pool {
		y := math.Max(0, sol.X[ms.yVar[i]]) / rho
		for _, id := range pth.edges {
			loads[id] += y
		}
	}
	// For the max model, a path column for destination d prices in when
	// sum c(e)*(alpha+beta) < -dual(cover_d); expose mu = -dual so the
	// caller's test reads "path cost < mu".
	mu := make([]float64, len(ms.dests))
	for di := range ms.dests {
		mu[di] = -sol.Dual[ms.coverRow[di]]
	}
	alpha := make([]float64, ms.g.NumNodes())
	beta := make([]float64, ms.g.NumNodes())
	for v, r := range ms.inRow {
		alpha[v] = math.Max(0, sol.Dual[r])
	}
	for v, r := range ms.outRow {
		beta[v] = math.Max(0, sol.Dual[r])
	}
	return 1 / rho, loads, mu, alpha, beta, nil
}
