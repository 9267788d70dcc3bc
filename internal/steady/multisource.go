package steady

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

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
// the program reduces to ScatterUB. fp is p.G's fingerprint.
//
// Implementation note: the paper's edge-flow formulation carries one
// conservation row per (origin, node) pair with a zero right-hand
// side; at platform scale that produces a degenerate plateau that
// wrecks the simplex. Since every commodity is an origin-to-destination
// flow, the program is solved here in its equivalent path form by
// column generation (flow decomposition equivalence, DESIGN.md Section
// 4.3): the master LP has one convexity row per destination plus the
// one-port rows, and the pricing problem is a cheapest path under
// dual-adjusted edge costs, solved by one Dijkstra per origin. A
// master only grows: every pricing round appends its improving paths
// as columns (lp.Model.AddColumn) and re-solves warm from the previous
// basis, and every priced-in path joins the evaluator's path pool.
//
// Promotion trials grow across solves too. The evaluator keeps one
// solved master (Evaluator.ms). A program whose promotion order
// extends the stored master's by one source is a copy of that master
// grown by one promotion (growMS), re-solved warm from its optimal
// basis; one that extends it by two first grows the stored master by
// the first of them and stores the result, which is how AUGMENTED
// SOURCES moves on to the trials of its next round. Any other program
// is built cold, seeded with the pooled paths its origins may use and
// a cheapest path from the primary source to each destination, and is
// stored.
func (e *Evaluator) multiSourceUB(p Problem, extras []graph.NodeID, fp uint64) (*Bound, error) {
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
	var dests []msDest
	for i, s := range origins[1:] {
		dests = append(dests, msDest{node: s, maxOrigin: i + 1, source: true})
	}
	for _, t := range p.Targets {
		if !seen[t] {
			dests = append(dests, msDest{node: t, maxOrigin: len(origins)})
		}
	}
	if len(dests) == 0 {
		return &Bound{Period: 0, EdgeLoad: make([]float64, g.NumEdges())}, nil
	}
	// Every destination must ultimately be fed from the primary source.
	destNodes := make([]graph.NodeID, len(dests))
	for i, d := range dests {
		destNodes[i] = d.node
	}
	if !g.ReachesAll(p.Source, destNodes) {
		return infeasibleBound(), nil
	}

	targets := slices.Sorted(slices.Values(p.Targets))
	bound := &Bound{}
	var ms *msMaster
	var sol *lp.Solution
	var err error
	k := e.ms.promotionsTo(fp, targets, origins)
	if k == 2 {
		inc, _, err := e.growMS(e.ms, g, origins[len(origins)-2], bound)
		if err != nil {
			return nil, err
		}
		e.ms = inc
	}
	if k > 0 {
		ms, sol, err = e.growMS(e.ms, g, origins[len(origins)-1], bound)
	} else {
		ms = newMSMaster(g, fp, targets, origins, dests)
		e.seedPooled(ms, nil)
		_, parent := g.ShortestPaths(p.Source, graph.CostWeight)
		for di, d := range dests {
			e.addMSPath(ms, di, g.WalkBack(parent, d.node), p.Source)
		}
		if sol, err = e.price(ms, bound); err == nil {
			e.ms = ms
		}
	}
	if err != nil {
		return nil, err
	}
	bound.Period = 1 / sol.X[ms.rhoVar]
	bound.EdgeLoad = ms.edgeLoad(sol)
	return bound, nil
}

// growMS returns a copy of the solved master inc, on g (a platform with
// inc's fingerprint), grown by promoting c and solved to optimality;
// inc itself is left as it is. A target c already has its cover row. A
// non-target c gets one, appended as >= (promote), and the pooled and
// cheapest paths into c join as columns; at inc's optimal basis none of
// those columns prices in (the new row's dual is zero and the port
// duals only make a path dearer), so the basis stays dual feasible and
// dual simplex repairs the new row's infeasibility warm. Pooled paths
// out of c could price in, so they join only after that repair, and
// the pricing loop then re-solves warm. The other pooled paths a cold
// build would seed stay out: inc's columns already serve every old
// destination, and on the Figure 11 sweeps seeding them too cost more
// pivots than it saved (DESIGN.md Section 4.3).
func (e *Evaluator) growMS(inc *msMaster, g *graph.Graph, c graph.NodeID, bound *Bound) (*msMaster, *lp.Solution, error) {
	ms := inc.clone(g)
	if ms.promote(c) {
		ci := len(ms.dests) - 1
		e.seedPooled(ms, func(s pooledPath, di int) bool { return di == ci })
		_, parent := g.ShortestPaths(ms.origins[0], graph.CostWeight)
		e.addMSPath(ms, ci, g.WalkBack(parent, c), ms.origins[0])
		if _, err := ms.solve(e.ws, bound); err != nil {
			return nil, nil, err
		}
	}
	e.seedPooled(ms, func(s pooledPath, _ int) bool { return s.origin == c })
	sol, err := e.price(ms, bound)
	if err != nil {
		return nil, nil, err
	}
	return ms, sol, nil
}

// seedPooled adds as columns the evaluator's pooled paths that ms
// admits and that keep (nil keeps all) accepts, given the path and its
// destination index in ms: a path is admitted if its destination is one
// of ms's, its origin may feed that destination under ms's promotion
// order, and it is still an active origin->destination path of ms.g
// (the pools are keyed by source ID only, so a path may come from
// another platform).
func (e *Evaluator) seedPooled(ms *msMaster, keep func(s pooledPath, di int) bool) {
	pool := e.paths[ms.origins[0]]
	if len(pool) == 0 {
		return
	}
	destIndex := make(map[graph.NodeID]int, len(ms.dests))
	for di, d := range ms.dests {
		destIndex[d.node] = di
	}
	for _, s := range pool {
		di, ok := destIndex[s.dest]
		if !ok || (keep != nil && !keep(s, di)) {
			continue
		}
		oi := slices.Index(ms.origins, s.origin)
		if oi < 0 || oi >= ms.dests[di].maxOrigin {
			continue
		}
		if isActivePath(ms.g, s.origin, s.dest, s.edges) {
			e.addMSPath(ms, di, s.edges, s.origin)
		}
	}
}

// addMSPath adds the path edges from origin to destination di as a
// column of ms unless ms already has it, and pools it. It reports
// whether the column is new.
func (e *Evaluator) addMSPath(ms *msMaster, di int, edges []int, origin graph.NodeID) bool {
	key := pathPoolKey(graph.NodeID(di), 0, edges)
	if ms.colSeen[key] {
		return false
	}
	ms.colSeen[key] = true
	ms.addColumn(di, edges)
	e.recordPath(ms.origins[0], origin, ms.dests[di].node, edges)
	return true
}

// price runs column generation on ms to optimality and returns the
// final solution: solve the master (warm from ms.basis once it has
// one), then add, for every destination, its cheapest admissible path
// under the dual-adjusted edge costs if that undercuts the
// destination's convexity dual, until no path does.
func (e *Evaluator) price(ms *msMaster, bound *Bound) (*lp.Solution, error) {
	g := ms.g
	const maxRounds = 400
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, errors.New("steady: MultiSourceUB column generation did not converge")
		}
		sol, err := ms.solve(e.ws, bound)
		if err != nil {
			return nil, err
		}
		mu, alpha, beta := ms.duals(sol)
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
		dist := make([][]float64, len(ms.origins))
		par := make([][]int, len(ms.origins))
		for j, s := range ms.origins {
			dist[j], par[j] = g.ShortestPaths(s, w)
		}
		improved := false
		for di, d := range ms.dests {
			bestJ, bestCost := -1, math.Inf(1)
			for j := 0; j < d.maxOrigin; j++ {
				if c := dist[j][d.node]; c < bestCost {
					bestJ, bestCost = j, c
				}
			}
			if bestJ >= 0 && bestCost < mu[di]-1e-9*(1+math.Abs(mu[di])) {
				if e.addMSPath(ms, di, g.WalkBack(par[bestJ], d.node), ms.origins[bestJ]) {
					improved = true
				}
			}
		}
		if !improved {
			return sol, nil
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
	node graph.NodeID
	// maxOrigin bounds the origins that may feed the destination:
	// origins[0 : maxOrigin].
	maxOrigin int
	// source marks an intermediate source, fed by strictly earlier
	// origins only; the other destinations are targets, fed by every
	// origin.
	source bool
	// surplus marks a >= cover row (promote): its paths may deliver more
	// than one message per period, which edgeLoad trims.
	surplus bool
}

type msPath struct {
	dest  int
	edges []int
}

// msMaster is the restricted path master in throughput-normalised form:
// maximise rho subject to one convexity row per destination (its
// paths' rates sum to rho) and the one-port occupation rows (<= 1).
// The model is incremental: rows are laid down once, and each priced-in
// path joins as a column; promote appends one destination.
//
// fp, targets and origins[0] (the source) are the key an evaluator
// matches its stored master by; origins lists the intermediate sources
// in promotion order.
type msMaster struct {
	fp       uint64
	targets  []graph.NodeID // sorted
	origins  []graph.NodeID
	g        *graph.Graph
	dests    []msDest
	m        *lp.Model
	rhoVar   int
	coverRow []int
	// inRow and outRow map a node ID to its port rows (-1 for nodes that
	// were inactive at build time); copies share them read-only.
	inRow  []int
	outRow []int
	cols   []msPath // the path of every column, in column order
	yVar   []int
	// colSeen holds the (destination index, edges) key of every column.
	colSeen map[string]bool
	// basis is the optimal basis of the last solve (empty before it).
	basis lp.Basis
}

func newMSMaster(g *graph.Graph, fp uint64, targets, origins []graph.NodeID, dests []msDest) *msMaster {
	m := lp.NewModel()
	m.Maximize()
	ms := &msMaster{
		fp:       fp,
		targets:  targets,
		origins:  origins,
		g:        g,
		dests:    dests,
		m:        m,
		rhoVar:   m.AddVar(1, "rho"),
		coverRow: make([]int, len(dests)),
		inRow:    make([]int, g.NumNodes()),
		outRow:   make([]int, g.NumNodes()),
		colSeen:  make(map[string]bool),
	}
	for di := range dests {
		ms.coverRow[di] = m.AddRow(lp.EQ, 0, lp.Term{Var: ms.rhoVar, Coef: -1})
	}
	for v := range ms.inRow {
		ms.inRow[v], ms.outRow[v] = -1, -1
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

// promotionsTo reports how many promotions origins appends to the
// stored master ms: 1 or 2 when ms is a master of the same platform
// content (fingerprint fp), source and sorted target set whose origins
// are a prefix of origins, 0 otherwise (also for a nil ms).
func (ms *msMaster) promotionsTo(fp uint64, targets, origins []graph.NodeID) int {
	if ms == nil || ms.fp != fp || !slices.Equal(ms.targets, targets) {
		return 0
	}
	k := len(origins) - len(ms.origins)
	if k < 1 || k > 2 || !slices.Equal(ms.origins, origins[:len(ms.origins)]) {
		return 0
	}
	return k
}

// clone returns a copy of ms on g, a platform with ms's fingerprint,
// that can grow and re-solve without changing ms: the model, the
// destinations and the column keys are copied; the append-only slices
// are shared with their capacity clipped, so the copy's first append
// reallocates; the key and the port-row maps are shared read-only.
// clone only reads ms, so evaluators sharing a stored master (ResetTo)
// may clone it concurrently.
func (ms *msMaster) clone(g *graph.Graph) *msMaster {
	c := *ms
	c.g = g
	c.origins = slices.Clip(ms.origins)
	c.dests = slices.Clone(ms.dests)
	c.m = ms.m.Clone()
	c.coverRow = slices.Clip(ms.coverRow)
	c.cols = slices.Clip(ms.cols)
	c.yVar = slices.Clip(ms.yVar)
	c.colSeen = maps.Clone(ms.colSeen)
	return &c
}

// promote makes c the next intermediate source. A target keeps its
// cover row and the origins that fed it; any other node becomes a new
// destination fed by every earlier origin, with its cover row appended
// as >=, because SolveFrom warm-starts only appended inequalities (an
// = row has no slack to enter the basis on). The >= program has the
// paper's optimum: surplus into an intermediate source can be dropped
// without raising any port's occupation, and edgeLoad drops it. Every
// target may now also be fed by c. promote reports whether it appended
// a row.
func (ms *msMaster) promote(c graph.NodeID) bool {
	ms.origins = append(ms.origins, c)
	appended := false
	if di := slices.IndexFunc(ms.dests, func(d msDest) bool { return d.node == c }); di >= 0 {
		ms.dests[di].source = true
	} else {
		ms.dests = append(ms.dests, msDest{node: c, maxOrigin: len(ms.origins) - 1, source: true, surplus: true})
		ms.coverRow = append(ms.coverRow, ms.m.AddRow(lp.GE, 0, lp.Term{Var: ms.rhoVar, Coef: -1}))
		appended = true
	}
	for di := range ms.dests {
		if !ms.dests[di].source {
			ms.dests[di].maxOrigin = len(ms.origins)
		}
	}
	return appended
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
	ms.cols = append(ms.cols, msPath{dest: di, edges: append([]int(nil), edges...)})
	ms.yVar = append(ms.yVar, ms.m.AddColumn(0, "", entries...))
}

// solve re-solves the master (warm from ms.basis when it has one),
// records the solve in bound as one round, keeps the optimal basis and
// returns the solution.
func (ms *msMaster) solve(ws *lp.Workspace, bound *Bound) (*lp.Solution, error) {
	var sol *lp.Solution
	var err error
	if ms.basis.Empty() {
		sol, err = ms.m.SolveWith(ws)
	} else {
		sol, err = ms.m.SolveFrom(ws, ms.basis)
	}
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("steady: MultiSourceUB master: unexpected LP status %v", sol.Status)
	}
	bound.noteSolve(sol)
	bound.Rounds++
	ms.basis = sol.Basis
	if sol.X[ms.rhoVar] <= cutTol {
		return nil, errors.New("steady: MultiSourceUB: zero throughput on a reachable instance")
	}
	return sol, nil
}

// duals returns sol's convexity duals mu (sign-adjusted so that a path
// prices in when its dual-weighted cost undercuts mu) and the
// non-negative port duals alpha (receive side) and beta (send side).
func (ms *msMaster) duals(sol *lp.Solution) (mu, alpha, beta []float64) {
	// For the max model, a path column for destination d prices in when
	// sum c(e)*(alpha+beta) < -dual(cover_d); expose mu = -dual so the
	// caller's test reads "path cost < mu".
	mu = make([]float64, len(ms.dests))
	for di := range ms.dests {
		mu[di] = -sol.Dual[ms.coverRow[di]]
	}
	alpha = make([]float64, ms.g.NumNodes())
	beta = make([]float64, ms.g.NumNodes())
	for v, r := range ms.inRow {
		if r >= 0 {
			alpha[v] = math.Max(0, sol.Dual[r])
			beta[v] = math.Max(0, sol.Dual[ms.outRow[v]])
		}
	}
	return mu, alpha, beta
}

// edgeLoad returns sol's per-edge loads per multicast, the sum of the
// rates of the columns through each edge.
func (ms *msMaster) edgeLoad(sol *lp.Solution) []float64 {
	loads := make([]float64, ms.g.NumEdges())
	for i, y := range ms.rates(sol) {
		for _, id := range ms.cols[i].edges {
			loads[id] += y
		}
	}
	return loads
}

// rates returns every column's rate per multicast, its y over rho. A
// >= cover row may carry surplus, its paths delivering more than rho in
// all; those paths are scaled to deliver exactly rho, which only lowers
// loads, so the rates stay a solution of the paper's program (with =
// rows) at the same period.
func (ms *msMaster) rates(sol *lp.Solution) []float64 {
	rho := sol.X[ms.rhoVar]
	norm := make([]float64, len(ms.dests))
	for di := range norm {
		norm[di] = rho
	}
	var delivered []float64
	for i, pth := range ms.cols {
		if ms.dests[pth.dest].surplus {
			if delivered == nil {
				delivered = make([]float64, len(ms.dests))
			}
			delivered[pth.dest] += math.Max(0, sol.X[ms.yVar[i]])
		}
	}
	for di, d := range delivered {
		if d > rho {
			norm[di] = d
		}
	}
	rates := make([]float64, len(ms.cols))
	for i, pth := range ms.cols {
		rates[i] = math.Max(0, sol.X[ms.yVar[i]]) / norm[pth.dest]
	}
	return rates
}
