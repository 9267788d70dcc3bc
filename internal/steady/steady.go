// Package steady implements the steady-state throughput programs of
// RR-5123: the scatter relaxation Multicast-UB, the optimistic bound
// Multicast-LB, the broadcast program Broadcast-EB, and the multi-source
// program MulticastMultiSource-UB.
//
// All programs reason about one unit-size multicast: they minimise the
// period T needed per message, so the steady-state throughput is 1/T.
// The paper writes these programs with one flow variable per (target,
// edge) pair, which is correct but large; this package solves provably
// equivalent compact forms (see DESIGN.md Section 4):
//
//   - Multicast-UB: per-target unit flows coupled by n(e) = sum_i x^i(e)
//     aggregate into a single source-to-targets flow (flow decomposition
//     theorem), giving an LP with one variable per edge.
//   - Multicast-LB: with n(e) = max_i x^i(e), feasibility of n is "every
//     source->target cut has capacity >= 1" (max-flow/min-cut), giving a
//     small LP over n solved by cutting planes with Dinic separation.
//   - Broadcast-EB is Multicast-LB with every node as a target; the
//     paper proves this bound is achievable for broadcast, so it is the
//     exact broadcast period.
//   - MulticastMultiSource-UB aggregates commodities per origin.
//
// Every program is solved through an Evaluator (evaluator.go), which
// caches results, pools cuts and path columns across related solves,
// reuses one LP workspace and answers tree platforms combinatorially
// (fastpath.go).
package steady

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/lp"
)

// cutTol is the violation tolerance of the cutting-plane separation.
const cutTol = 1e-7

// Problem is a Series-of-Multicasts instance.
type Problem struct {
	G       *graph.Graph
	Source  graph.NodeID
	Targets []graph.NodeID
}

// NewProblem validates and builds a Problem. The source must be active
// and must not belong to the target set; targets must be active,
// non-empty and distinct.
func NewProblem(g *graph.Graph, source graph.NodeID, targets []graph.NodeID) (Problem, error) {
	if !g.Active(source) {
		return Problem{}, errors.New("steady: source is not active")
	}
	if len(targets) == 0 {
		return Problem{}, errors.New("steady: no targets")
	}
	seen := make(map[graph.NodeID]bool, len(targets))
	for _, t := range targets {
		if t == source {
			return Problem{}, errors.New("steady: source cannot be a target")
		}
		if !g.Active(t) {
			return Problem{}, fmt.Errorf("steady: target %s is not active", g.Name(t))
		}
		if seen[t] {
			return Problem{}, fmt.Errorf("steady: duplicate target %s", g.Name(t))
		}
		seen[t] = true
	}
	return Problem{G: g, Source: source, Targets: append([]graph.NodeID(nil), targets...)}, nil
}

// Bound is the outcome of one of the steady-state programs. A Period of
// +Inf means the instance is infeasible (some target unreachable), as in
// the paper's convention Broadcast-EB(P \ Pm) = +Inf.
type Bound struct {
	// Period is the optimal T*: time needed per unit-size multicast.
	Period float64
	// EdgeLoad is the per-edge message load n(e) per multicast (indexed
	// by edge ID; nil when Period is infinite).
	EdgeLoad []float64
	// Rounds counts cutting-plane or column-generation iterations
	// (Multicast-LB and MulticastMultiSource-UB).
	Rounds int
	// Cuts counts generated cut constraints (Multicast-LB only).
	Cuts int
	// Solves counts the LP solves behind this bound.
	Solves int
	// Iterations counts the simplex pivots across those solves.
	Iterations int
	// WarmSolves counts the solves that reused the previous round's
	// optimal basis instead of starting cold.
	WarmSolves int
}

// noteSolve folds one LP solution's solver effort into the bound.
func (b *Bound) noteSolve(sol *lp.Solution) {
	b.Solves++
	b.Iterations += sol.Iterations
	if sol.WarmStarted {
		b.WarmSolves++
	}
}

// Throughput returns 1/Period (0 for an infeasible instance).
func (b *Bound) Throughput() float64 {
	if b == nil || math.IsInf(b.Period, 1) || b.Period <= 0 {
		return 0
	}
	return 1 / b.Period
}

// Infeasible reports whether the bound denotes an unreachable target
// set.
func (b *Bound) Infeasible() bool { return math.IsInf(b.Period, 1) }

func infeasibleBound() *Bound { return &Bound{Period: math.Inf(1)} }

// All programs are solved in throughput-normalised form: flows are
// expressed per unit of time, the one-port occupation of every port is
// bounded by 1, and the objective maximises the throughput rho (the
// paper's period is recovered as T = 1/rho, and its per-multicast
// loads as load/rho). The normalised form is numerically crucial: the
// direct "minimise T" form has only zero right-hand sides, which
// strands the tableau simplex on enormous degenerate plateaus, while
// in this form the origin is a feasible basis and ratio tests are
// non-degenerate.

// scratch pools the per-evaluation buffers of the steady-state
// programs: the flow solver's residual network, active-edge and node
// ID lists, the edge-to-variable index, LP term builders, and the
// BFS/layer-cut workspaces. Every Evaluator owns one, so long heuristic
// runs stop reallocating these on every trial evaluation.
type scratch struct {
	flow     flow.Solver
	edges    []int     // active-edge ID buffer
	varOf    []int32   // edge ID -> LP variable index, -1 when absent
	rank     []int32   // edge ID -> dense rank among active edges
	terms    []lp.Term // row-terms build buffer
	capacity []float64
	blocked  []bool
	seen     []bool
	stack    []graph.NodeID
	dist     []int32
	queue    []graph.NodeID
	cut      []int
	inT      []bool
	nodes    []graph.NodeID
	buf      []int
}

func (sc *scratch) growVarOf(n int) []int32 {
	if cap(sc.varOf) < n {
		sc.varOf = make([]int32, n)
	}
	sc.varOf = sc.varOf[:n]
	for i := range sc.varOf {
		sc.varOf[i] = -1
	}
	return sc.varOf
}

// addPortRows adds the normalised one-port occupation constraints
// sum_{e in in(v)} c(e) x(e) <= 1 and the symmetric out-port rows for
// every active node, where varOf maps edge IDs to LP variables.
func addPortRows(m *lp.Model, g *graph.Graph, varOf []int32, sc *scratch) {
	sc.nodes = g.AppendActiveNodes(sc.nodes[:0])
	for _, v := range sc.nodes {
		sc.buf = g.InEdges(v, sc.buf[:0])
		if len(sc.buf) > 0 {
			terms := sc.terms[:0]
			for _, id := range sc.buf {
				terms = append(terms, lp.Term{Var: int(varOf[id]), Coef: g.Edge(id).Cost})
			}
			m.AddRow(lp.LE, 1, terms...)
			sc.terms = terms[:0]
		}
		sc.buf = g.OutEdges(v, sc.buf[:0])
		if len(sc.buf) > 0 {
			terms := sc.terms[:0]
			for _, id := range sc.buf {
				terms = append(terms, lp.Term{Var: int(varOf[id]), Coef: g.Edge(id).Cost})
			}
			m.AddRow(lp.LE, 1, terms...)
			sc.terms = terms[:0]
		}
	}
}

// scatterUB solves the paper's Multicast-UB program on the LP (see
// Evaluator.ScatterUB): the pessimistic relaxation in which the
// messages bound for distinct targets are counted separately on every
// link (a scatter). Its period is an upper bound on the optimal
// multicast period, and the bound is achievable (Section 5.1.2 of the
// paper).
func (e *Evaluator) scatterUB(p Problem) (*Bound, error) {
	g := p.G
	if !g.ReachesAll(p.Source, p.Targets) {
		return infeasibleBound(), nil
	}
	sc := &e.sc
	m := lp.NewModel()
	m.Maximize()
	rhoVar := m.AddVar(1, "rho")
	sc.edges = g.AppendActiveEdges(sc.edges[:0])
	fVar := sc.growVarOf(g.NumEdges())
	for _, id := range sc.edges {
		fVar[id] = int32(m.AddVar(0, ""))
	}
	isTarget := make(map[graph.NodeID]bool, len(p.Targets))
	for _, t := range p.Targets {
		isTarget[t] = true
	}
	// Flow conservation per unit time: net outflow = +N*rho at the
	// source, -rho at targets.
	sc.nodes = g.AppendActiveNodes(sc.nodes[:0])
	for _, v := range sc.nodes {
		terms := sc.terms[:0]
		sc.buf = g.OutEdges(v, sc.buf[:0])
		for _, id := range sc.buf {
			terms = append(terms, lp.Term{Var: int(fVar[id]), Coef: 1})
		}
		sc.buf = g.InEdges(v, sc.buf[:0])
		for _, id := range sc.buf {
			terms = append(terms, lp.Term{Var: int(fVar[id]), Coef: -1})
		}
		switch {
		case v == p.Source:
			terms = append(terms, lp.Term{Var: rhoVar, Coef: -float64(len(p.Targets))})
		case isTarget[v]:
			terms = append(terms, lp.Term{Var: rhoVar, Coef: 1})
		}
		sc.terms = terms[:0]
		if len(terms) == 0 {
			continue
		}
		m.AddRow(lp.EQ, 0, terms...)
	}
	addPortRows(m, g, fVar, sc)
	sol, err := m.SolveWith(e.ws)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("steady: ScatterUB: unexpected LP status %v", sol.Status)
	}
	rho := sol.X[rhoVar]
	if rho <= cutTol {
		return nil, errors.New("steady: ScatterUB: zero throughput on a reachable instance")
	}
	load := make([]float64, g.NumEdges())
	for _, id := range sc.edges {
		load[id] = math.Max(0, sol.X[fVar[id]]) / rho
	}
	b := &Bound{Period: 1 / rho, EdgeLoad: load}
	b.noteSolve(sol)
	return b, nil
}

// multicastLB solves the paper's Multicast-LB program on the LP (see
// Evaluator.MulticastLB): the optimistic relaxation in which messages
// bound for distinct targets may share links for free
// (n(e) = max_i x^i(e)). Its period is a lower bound on the optimal
// multicast period, not achievable in general (Figure 4).
//
// Two equivalent formulations are routed by the shape of the target
// set (DESIGN.md Section 4.2). A broadcast-shaped program — every
// active node but the source is a target, the shape BroadcastEB builds
// for each REDUCED BROADCAST and AUGMENTED MULTICAST trial — runs the
// cut-covering master with min-cut separation at every size: it is
// tiny, starts from the evaluator's pooled cuts, and converges in a
// few rounds when every node is a target. Any other target set runs
// the paper's direct per-target formulation (|targets|*|edges|
// variables) while its estimated row count stays within 4600, since
// the cut master wanders through near-duplicate cuts when targets are
// sparse, and the cut master above that. Both agree to 1e-9 on the
// heuristics' trial shapes (TestLBFormulationsAgree). Both expect a
// reachable target set and the active edges in e.sc.edges, which this
// dispatch establishes.
func (e *Evaluator) multicastLB(p Problem) (*Bound, error) {
	g := p.G
	if !g.ReachesAll(p.Source, p.Targets) {
		return infeasibleBound(), nil
	}
	e.sc.edges = g.AppendActiveEdges(e.sc.edges[:0])
	// Targets are distinct active non-source nodes, so fewer than
	// nodes-1 of them is exactly "not broadcast-shaped". Below the
	// estimated direct-formulation row cap such a program takes the
	// direct LP, which is cheap and immune to cut thrashing.
	nodes := g.NumActive()
	if len(p.Targets) < nodes-1 && len(p.Targets)*(nodes+len(e.sc.edges))+2*nodes <= 4600 {
		return e.multicastLBDirect(p)
	}
	return e.multicastLBCuts(p)
}

// seedCut is a pooled source->target cut: the target it separated and
// its edges.
type seedCut struct {
	target graph.NodeID
	edges  []int
}

// multicastLBCuts solves Multicast-LB by cut-covering with min-cut
// separation (the broadcast-shaped and large regimes of multicastLB).
// The master LP is built once and then only grows: every separation
// round appends its violated cut rows to the same model and re-solves
// from the previous round's basis, the appended rows repaired by
// dual-simplex pivots. The master is primed with the evaluator's pooled
// cuts that are still valid for p, and every new cut joins the pool.
func (e *Evaluator) multicastLBCuts(p Problem) (*Bound, error) {
	g := p.G
	// Normalise the edge costs for conditioning: with c <= 1 the
	// optimal rho is O(1) instead of O(1/maxCost).
	scale := g.MaxCost()
	if scale <= 0 {
		return infeasibleBound(), nil
	}

	sc := &e.sc
	edges := sc.edges
	master := lp.NewModel()
	master.Maximize()
	rhoVar := master.AddVar(1, "rho")
	nVar := sc.growVarOf(g.NumEdges())
	for _, id := range edges {
		nVar[id] = int32(master.AddVar(0, ""))
	}
	addPortRowsScaled(master, g, nVar, sc, scale)

	seen := make(map[string]bool)
	ncuts := 0
	addCut := func(target graph.NodeID, cut []int) bool {
		if len(cut) == 0 {
			return false
		}
		key := cutKey(cut)
		if seen[key] {
			return false
		}
		seen[key] = true
		ncuts++
		terms := sc.terms[:0]
		for _, id := range cut {
			terms = append(terms, lp.Term{Var: int(nVar[id]), Coef: 1})
		}
		terms = append(terms, lp.Term{Var: rhoVar, Coef: -1})
		master.AddRow(lp.GE, 0, terms...)
		sc.terms = terms[:0]
		e.recordCut(p.Source, target, cut)
		return true
	}
	// Prime with any pooled cuts from earlier, related solves, then the
	// trivial cuts (the source's out-edges, each target's in-edges) and
	// the hop-distance layer cuts around every target:
	// S_k = {v : hopdist(v -> t) > k} is a valid source-target
	// separator for every k below the source's distance. Without the
	// layer seeds the separation peels these one per round ("onion
	// peeling"), the textbook slow mode of Kelley cutting planes.
	for _, s := range e.validCuts(p) {
		addCut(s.target, s.edges)
	}
	sc.buf = g.OutEdges(p.Source, sc.buf[:0])
	addCut(p.Targets[0], sc.buf)
	for _, t := range p.Targets {
		sc.buf = g.InEdges(t, sc.buf[:0])
		addCut(t, sc.buf)
		layerCuts(g, p.Source, t, sc, func(cut []int) { addCut(t, cut) })
	}

	bound := &Bound{}
	var basis lp.Basis
	if cap(sc.capacity) < g.NumEdges() {
		sc.capacity = make([]float64, g.NumEdges())
	}
	capacity := sc.capacity[:g.NumEdges()]
	for i := range capacity {
		capacity[i] = 0
	}
	const maxRounds = 500
	for round := 0; ; round++ {
		if round >= maxRounds {
			// Kelley's cutting plane can tail off on a large dense
			// instance, still adding a cut or two per round with rho
			// falling. The direct form is exact at any size, so hand
			// the instance over to it; the cut work done so far stays
			// on the bound's counters.
			direct, err := e.multicastLBDirect(p)
			if err != nil {
				return nil, err
			}
			direct.Rounds += bound.Rounds
			direct.Cuts = ncuts
			direct.Solves += bound.Solves
			direct.Iterations += bound.Iterations
			direct.WarmSolves += bound.WarmSolves
			return direct, nil
		}
		var sol *lp.Solution
		var err error
		if basis.Empty() {
			sol, err = master.SolveWith(e.ws)
		} else {
			sol, err = master.SolveFrom(e.ws, basis)
		}
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("steady: MulticastLB: unexpected LP status %v", sol.Status)
		}
		bound.noteSolve(sol)
		basis = sol.Basis
		bound.Rounds = round + 1
		rho := sol.X[rhoVar]
		if rho <= cutTol {
			return nil, errors.New("steady: MulticastLB: zero throughput on a reachable instance")
		}
		for _, id := range edges {
			capacity[id] = math.Max(0, sol.X[nVar[id]])
		}
		violated := false
		for _, t := range p.Targets {
			value, cut := sc.flow.MinCut(g, capacity, p.Source, t)
			if value < rho*(1-cutTol) {
				if len(cut) == 0 {
					// No crossing edge at all: the target is unreachable.
					return infeasibleBound(), nil
				}
				if addCut(t, cut) {
					violated = true
				}
			}
		}
		if !violated {
			// Report the paper's per-multicast quantities; rho is per
			// *scaled* time unit, so the true period is scale/rho. The
			// load profile is returned to the caller, so it cannot live
			// in the scratch.
			loads := make([]float64, g.NumEdges())
			for i, c := range capacity {
				loads[i] = c / rho
			}
			bound.Period = scale / rho
			bound.EdgeLoad = loads
			bound.Cuts = ncuts
			return bound, nil
		}
	}
}

// addPortRowsScaled is addPortRows with every coefficient divided by
// scale (the cut master normalises edge costs for conditioning).
func addPortRowsScaled(m *lp.Model, g *graph.Graph, varOf []int32, sc *scratch, scale float64) {
	sc.nodes = g.AppendActiveNodes(sc.nodes[:0])
	for _, v := range sc.nodes {
		for _, in := range []bool{true, false} {
			if in {
				sc.buf = g.InEdges(v, sc.buf[:0])
			} else {
				sc.buf = g.OutEdges(v, sc.buf[:0])
			}
			if len(sc.buf) == 0 {
				continue
			}
			terms := sc.terms[:0]
			for _, id := range sc.buf {
				terms = append(terms, lp.Term{Var: int(varOf[id]), Coef: g.Edge(id).Cost / scale})
			}
			m.AddRow(lp.LE, 1, terms...)
			sc.terms = terms[:0]
		}
	}
}

// layerCuts emits the hop-distance layer cuts between source and
// target: for each k in [0, hopdist(source -> t)), the edges crossing
// from {v : hopdist(v -> t) > k} into the rest. Nodes that cannot reach
// t at all count as infinitely far (source side). The emitted slice is
// scratch-owned and only valid for the duration of the callback.
func layerCuts(g *graph.Graph, source, t graph.NodeID, sc *scratch, emit func(cut []int)) {
	const inf = int32(^uint32(0) >> 1)
	n := g.NumNodes()
	if cap(sc.dist) < n {
		sc.dist = make([]int32, n)
	}
	dist := sc.dist[:n]
	for i := range dist {
		dist[i] = inf
	}
	dist[t] = 0
	queue := append(sc.queue[:0], t)
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		sc.buf = g.InEdges(v, sc.buf[:0])
		for _, id := range sc.buf {
			from := g.Edge(id).From
			if dist[from] == inf {
				dist[from] = dist[v] + 1
				queue = append(queue, from)
			}
		}
	}
	sc.queue = queue[:0]
	if dist[source] == inf {
		return
	}
	for k := int32(0); k < dist[source]; k++ {
		cut := sc.cut[:0]
		for _, id := range sc.edges {
			e := g.Edge(id)
			if dist[e.From] > k && dist[e.To] <= k {
				cut = append(cut, id)
			}
		}
		sc.cut = cut[:0]
		if len(cut) > 0 {
			emit(cut)
		}
	}
}

func cutKey(cut []int) string {
	s := append([]int(nil), cut...)
	sort.Ints(s)
	var sb strings.Builder
	for _, id := range s {
		sb.WriteString(strconv.Itoa(id))
		sb.WriteByte(',')
	}
	return sb.String()
}

// RecoverUnitFlows reconstructs the per-target variables x^i of the
// paper's LPs from a load profile: for every target it returns a unit
// s->target flow supported by load (per-edge capacities), indexed like
// targets. Targets whose max-flow falls short of one unit (possible
// only through numerical noise) are returned with their maximum flow
// instead. The evaluator's pooled flow solver is reused across targets
// and calls; the per-target flow slices are fresh (callers retain
// them).
func (e *Evaluator) RecoverUnitFlows(g *graph.Graph, load []float64, source graph.NodeID, targets []graph.NodeID) [][]float64 {
	out := make([][]float64, len(targets))
	for i, t := range targets {
		_, out[i] = e.sc.flow.MaxFlowUpTo(g, load, source, t, 1, nil)
	}
	return out
}

// InflowAt returns the total per-target traffic entering node m:
// sum_i sum_{Pj in N^in(Pm)} x^{j,m}_i, the quantity the paper's
// LP-based heuristics sort candidate nodes by. perTarget is
// RecoverUnitFlows' result; the sum runs in its (target) order, so the
// bits depend only on the flows.
func InflowAt(g *graph.Graph, perTarget [][]float64, m graph.NodeID) float64 {
	total := 0.0
	in := g.InEdges(m, nil)
	for _, f := range perTarget {
		for _, id := range in {
			total += f[id]
		}
	}
	return total
}

// AggregateInflowAt returns the load entering node m under an aggregate
// edge-load profile (used with scatter-like solutions, where the
// aggregate equals the per-target sum).
func AggregateInflowAt(g *graph.Graph, load []float64, m graph.NodeID) float64 {
	total := 0.0
	for _, id := range g.InEdges(m, nil) {
		total += load[id]
	}
	return total
}
