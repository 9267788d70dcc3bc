// Package whatif is the resilience and sensitivity engine: given a
// Series-of-Multicasts instance it evaluates a family of perturbation
// scenarios — single-node failures, per-edge link failures and
// bandwidth degradations, and secondary-source promotions — and ranks
// how critical every node and edge is to the steady-state throughput.
//
// Real heterogeneous platforms degrade: nodes fail, links slow down,
// sources move. The paper's bounds answer "how fast can this platform
// multicast", and this package answers "how much of that survives when
// X breaks" without replanning cold. A scenario that cannot move the
// baseline Multicast-LB optimum — the failure or slow-down of a link,
// or the failure of a relay, that carries no load in it — is answered
// from the baseline itself, without a solve. Every other scenario runs
// on a steady.Evaluator restored to the baseline snapshot, so the
// baseline's pooled Multicast-LB cuts and multisource path columns
// warm-start each perturbed LP, and each source promotion grows the
// baseline's solved multisource master instead of building its own
// (DESIGN.md Section 10).
//
// Determinism contract: scenario enumeration is a pure function of the
// platform and the config, and every scenario is either answered from
// the baseline or evaluated on an evaluator restored to the same
// baseline snapshot over a private graph copy, so Analyze returns
// bit-identical reports for any worker count — the same contract the
// serving layer's /v1/whatif endpoint streams over HTTP.
package whatif

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/fanout"
	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/lp"
	"repro/internal/steady"
	"repro/internal/tree"
)

// Kind names a scenario class.
type Kind string

const (
	// KindNodeFailure removes one non-source node (and all its links).
	KindNodeFailure Kind = "node-failure"
	// KindEdgeFailure removes one directed edge.
	KindEdgeFailure Kind = "edge-failure"
	// KindEdgeDegrade multiplies one directed edge's cost by Factor.
	KindEdgeDegrade Kind = "edge-degrade"
	// KindPromoteSource promotes one node to a secondary source.
	KindPromoteSource Kind = "promote-source"
)

// Scenario is one perturbation of the baseline platform.
type Scenario struct {
	Kind Kind
	// Node is the failed node (KindNodeFailure) or the promotion
	// candidate (KindPromoteSource).
	Node graph.NodeID
	// Edge is the perturbed edge ID (KindEdgeFailure, KindEdgeDegrade).
	Edge int
	// Factor is the cost multiplier of KindEdgeDegrade (> 1 means a
	// slower link; 0 denotes KindEdgeFailure in configs).
	Factor float64
}

// Delta expresses the scenario's platform perturbation in the shared
// graph-delta vocabulary — the same ops a live PATCH or an incremental
// replan applies, so "relay r1 fails" is the same object whether it is
// hypothetical here or an observed event on a live platform.
// KindPromoteSource returns nil: promotion perturbs the problem (an
// extra source), not the platform.
func (sc Scenario) Delta() graph.Delta {
	switch sc.Kind {
	case KindNodeFailure:
		return graph.Delta{graph.DropNodeOp(sc.Node)}
	case KindEdgeFailure:
		return graph.Delta{graph.DisableEdgeOp(sc.Edge)}
	case KindEdgeDegrade:
		return graph.Delta{graph.ScaleEdgeCostOp(sc.Edge, sc.Factor)}
	}
	return nil
}

// Config parameterises a what-if analysis.
type Config struct {
	// Workers bounds the concurrent scenario evaluations; values < 1
	// mean runtime.GOMAXPROCS(0). The report is bit-identical for any
	// worker count.
	Workers int
	// NodeFailures enables one scenario per active non-source node.
	NodeFailures bool
	// FailNodes restricts the node-failure scenarios to an explicit
	// candidate list instead of every active non-source node (ignored
	// unless NodeFailures is set; candidates that are inactive or the
	// source are skipped).
	FailNodes []graph.NodeID
	// EdgeFactors enables, per active edge, one scenario per factor: 0
	// is a link failure, a factor f > 0 multiplies the edge cost by f.
	// Factors of exactly 1 are skipped (no-ops).
	EdgeFactors []float64
	// PromoteSources lists secondary-source candidates; nil with
	// AllSources false means none.
	PromoteSources []graph.NodeID
	// AllSources promotes every active non-source node instead of the
	// explicit PromoteSources list.
	AllSources bool
	// Cold solves every scenario that the baseline does not answer (see
	// Eval) on an emptied evaluator (steady.Evaluator.Reset) instead of
	// one restored to the baseline snapshot — the replan-from-scratch
	// reference that BenchmarkWhatifWarm is measured against. Results are
	// identical up to LP degeneracy; only the solver effort changes.
	Cold bool
}

// DefaultConfig is the scenario family the serving layer and cmd/mcast
// run when the caller does not choose: every node failure, every link
// failure, and every source promotion.
func DefaultConfig() Config {
	return Config{NodeFailures: true, EdgeFactors: []float64{0}, AllSources: true}
}

// Baseline is the unperturbed reference every scenario is compared
// against. It owns a private evaluator snapshot taken after the
// baseline solves, so the scenario evaluators restored to Ev inherit
// the pooled cuts and path columns, and the solved multisource master
// that promotion scenarios grow, whatever happens to the evaluator the
// baseline was computed on (serving shards Reset theirs between
// requests).
type Baseline struct {
	Problem steady.Problem
	// LB is the Multicast-LB bound, the throughput reference of node
	// and edge scenarios; its EdgeLoad decides which of them cannot move
	// the optimum (see Eval).
	LB *steady.Bound
	// MultiSource is MulticastMultiSource-UB with no promoted sources,
	// the reference of promotion scenarios.
	MultiSource *steady.Bound
	// Tree is the MCPH multicast tree, used for the cheap "does the
	// incumbent plan survive this scenario" check; nil when MCPH fails
	// on the instance (e.g. an unreachable target).
	Tree *tree.Tree
	// TreePeriod is Tree's one-port period (0 when Tree is nil).
	TreePeriod float64
	// Ev is the evaluator snapshot every warm scenario evaluator is
	// restored to (steady.Evaluator.ResetTo).
	Ev *steady.Evaluator
}

// NewBaseline computes the baseline bounds and MCPH tree on the given
// evaluator (seeding its cut and path pools), then snapshots it. The
// problem must already be validated (steady.NewProblem).
func NewBaseline(ev *steady.Evaluator, p steady.Problem) (*Baseline, error) {
	lb, err := ev.MulticastLB(p)
	if err != nil {
		return nil, fmt.Errorf("whatif: baseline Multicast-LB: %w", err)
	}
	ms, err := ev.MultiSourceUB(p, nil)
	if err != nil {
		return nil, fmt.Errorf("whatif: baseline MulticastMultiSource-UB: %w", err)
	}
	b := &Baseline{Problem: p, LB: lb, MultiSource: ms, Ev: ev.Clone()}
	if res, err := heur.MCPH(p); err == nil {
		b.Tree = res.Tree
		b.TreePeriod = res.Period
	}
	return b, nil
}

// Enumerate lists the scenarios of cfg on the given instance, in the
// deterministic report order: node failures by increasing node ID,
// then edge scenarios by increasing edge ID (factors in config order),
// then source promotions in candidate order.
func Enumerate(g *graph.Graph, source graph.NodeID, cfg Config) []Scenario {
	var out []Scenario
	if cfg.NodeFailures {
		cands := cfg.FailNodes
		if cands == nil {
			cands = g.ActiveNodes()
		}
		for _, v := range cands {
			if v != source && g.Active(v) {
				out = append(out, Scenario{Kind: KindNodeFailure, Node: v})
			}
		}
	}
	if len(cfg.EdgeFactors) > 0 {
		for _, id := range g.ActiveEdges() {
			for _, f := range cfg.EdgeFactors {
				switch {
				case f == 0:
					out = append(out, Scenario{Kind: KindEdgeFailure, Edge: id})
				case f != 1:
					out = append(out, Scenario{Kind: KindEdgeDegrade, Edge: id, Factor: f})
				}
			}
		}
	}
	cands := cfg.PromoteSources
	if cfg.AllSources {
		cands = nil
		for _, v := range g.ActiveNodes() {
			if v != source {
				cands = append(cands, v)
			}
		}
	}
	for _, v := range cands {
		if v != source && g.Active(v) {
			out = append(out, Scenario{Kind: KindPromoteSource, Node: v})
		}
	}
	return out
}

// Result is the outcome of one scenario evaluation.
type Result struct {
	Scenario
	// Err reports an evaluation failure; the other fields are zero.
	Err error
	// Infeasible marks a scenario under which some target cannot be
	// served at all (throughput 0).
	Infeasible bool
	// Period and Throughput are the perturbed bound of the scenario's
	// reference program (Multicast-LB for node and edge scenarios,
	// MulticastMultiSource-UB for promotions).
	Period     float64
	Throughput float64
	// Delta is Throughput minus the baseline throughput of the same
	// program: negative for degradations, positive when a promotion
	// helps.
	Delta float64
	// TargetLost marks a node failure that removed a multicast target
	// (the remaining targets are still evaluated).
	TargetLost bool
	// TreeSurvives reports whether the baseline MCPH tree is still
	// valid under the scenario; TreePeriod is its (possibly degraded)
	// one-port period when it survives.
	TreeSurvives bool
	TreePeriod   float64
	// Dominated marks a scenario answered from the baseline optimum
	// without a solve, because it cannot move it (see Eval).
	Dominated bool
}

// Eval evaluates one scenario on g, a private copy of the baseline
// platform, which Eval perturbs via the scenario's graph delta and
// restores via the delta's exact-bits undo.
//
// A scenario that cannot move the baseline Multicast-LB optimum is
// dominated: Eval answers it from base.LB (Period and Throughput of the
// baseline, Delta exactly 0) without solving, perturbing g or touching
// ev. Multicast-LB minimises the period over a polytope, and failing an
// edge, slowing it down (Factor > 1) or failing a non-target node only
// fixes loads at zero or scales the coefficients of their terms. When
// every load involved is exactly zero in the baseline optimum, that
// point stays feasible in the perturbed polytope, which lies inside the
// baseline's, so the optimum cannot move. The check uses exact zeros (a tolerance
// would answer scenarios whose optimum can move) and never applies to
// an infeasible baseline; target failures, speed-ups (Factor < 1) and
// promotions always solve.
//
// Any other scenario is solved on ev, which must be private to the
// call and hold the baseline snapshot (base.Ev.Clone(), or an evaluator
// restored with ResetTo(base.Ev)) — or be empty, for cold replans. The
// result depends only on (base, scenario) — never on which worker ran
// it or what ran before it on g or ev.
func Eval(base *Baseline, ev *steady.Evaluator, g *graph.Graph, sc Scenario) Result {
	if dominated(base, g, sc) {
		return fromBaseline(base, g, sc)
	}
	return solve(base, ev, g, sc)
}

// dominated reports whether sc cannot move the baseline Multicast-LB
// optimum (see Eval).
func dominated(base *Baseline, g *graph.Graph, sc Scenario) bool {
	if base.LB.Infeasible() {
		return false
	}
	load := base.LB.EdgeLoad
	idle := func(id int) bool { return id >= 0 && id < len(load) && load[id] == 0 }
	switch sc.Kind {
	case KindEdgeFailure:
		return idle(sc.Edge)
	case KindEdgeDegrade:
		// A factor that overflows the cost is an invalid delta, which
		// solve reports as such.
		return sc.Factor > 1 && idle(sc.Edge) && !math.IsInf(g.Edge(sc.Edge).Cost*sc.Factor, 1)
	case KindNodeFailure:
		v := sc.Node
		if v < 0 || int(v) >= g.NumNodes() || v == base.Problem.Source || slices.Contains(base.Problem.Targets, v) {
			return false
		}
		for _, id := range g.OutEdges(v, g.InEdges(v, nil)) {
			if !idle(id) {
				return false
			}
		}
		return true
	}
	return false
}

// fromBaseline answers a dominated scenario from the baseline optimum.
func fromBaseline(base *Baseline, g *graph.Graph, sc Scenario) Result {
	res := Result{Scenario: sc, Dominated: true}
	noteBound(&res, base.LB, base.LB.Throughput())
	noteTree(base, g, &res)
	return res
}

// solve evaluates a scenario that is not dominated on ev.
func solve(base *Baseline, ev *steady.Evaluator, g *graph.Graph, sc Scenario) Result {
	res := Result{Scenario: sc}
	p := steady.Problem{G: g, Source: base.Problem.Source, Targets: base.Problem.Targets}
	switch sc.Kind {
	case KindNodeFailure:
		evalNodeFailure(base, ev, g, sc, &res)
	case KindEdgeFailure, KindEdgeDegrade:
		undo, err := sc.Delta().Apply(g)
		if err != nil {
			res.Err = err
			return res
		}
		bound, err := ev.MulticastLB(p)
		undo.Apply(g)
		if err != nil {
			res.Err = err
			return res
		}
		noteBound(&res, bound, base.LB.Throughput())
		noteTree(base, g, &res)
	case KindPromoteSource:
		bound, err := ev.PromoteSource(p, nil, sc.Node)
		if err != nil {
			res.Err = err
			return res
		}
		noteBound(&res, bound, base.MultiSource.Throughput())
		noteTree(base, g, &res)
	default:
		res.Err = fmt.Errorf("whatif: unknown scenario kind %q", sc.Kind)
	}
	return res
}

func evalNodeFailure(base *Baseline, ev *steady.Evaluator, g *graph.Graph, sc Scenario, res *Result) {
	targets := make([]graph.NodeID, 0, len(base.Problem.Targets))
	for _, t := range base.Problem.Targets {
		if t == sc.Node {
			res.TargetLost = true
			continue
		}
		targets = append(targets, t)
	}
	undo, err := sc.Delta().Apply(g)
	if err != nil {
		res.Err = err
		return
	}
	defer undo.Apply(g)
	if len(targets) == 0 {
		res.Infeasible = true
		res.Delta = -base.LB.Throughput()
		return
	}
	p, err := steady.NewProblem(g, base.Problem.Source, targets)
	if err != nil {
		res.Err = err
		return
	}
	bound, err := ev.MulticastLB(p)
	if err != nil {
		res.Err = err
		return
	}
	noteBound(res, bound, base.LB.Throughput())
	noteTree(base, g, res)
}

// noteTree records whether the baseline MCPH tree survives the scenario
// and its one-port period if so: a node or link failure kills the tree
// iff the tree uses the failed element, a degradation recomputes the
// period if the tree uses the edge, and a promotion leaves the tree as
// it is. g must hold the baseline costs.
func noteTree(base *Baseline, g *graph.Graph, res *Result) {
	t := base.Tree
	if t == nil {
		return
	}
	res.TreePeriod = base.TreePeriod
	switch res.Kind {
	case KindNodeFailure:
		res.TreeSurvives = !t.Nodes(g)[res.Node]
	case KindEdgeFailure:
		res.TreeSurvives = !slices.Contains(t.Edges, res.Edge)
	case KindEdgeDegrade:
		res.TreeSurvives = true
		if slices.Contains(t.Edges, res.Edge) {
			res.TreePeriod = scaledTreePeriod(g, t, res.Edge, res.Factor)
		}
	case KindPromoteSource:
		res.TreeSurvives = true
	}
	if !res.TreeSurvives {
		res.TreePeriod = 0
	}
}

func noteBound(res *Result, b *steady.Bound, baseThroughput float64) {
	if b.Infeasible() {
		res.Infeasible = true
		res.Delta = -baseThroughput
		return
	}
	res.Period = b.Period
	res.Throughput = b.Throughput()
	res.Delta = res.Throughput - baseThroughput
}

// scaledTreePeriod recomputes a tree's one-port period with one edge's
// cost multiplied by factor, without mutating the graph.
func scaledTreePeriod(g *graph.Graph, t *tree.Tree, edge int, factor float64) float64 {
	send := make(map[graph.NodeID]float64)
	period := 0.0
	for _, id := range t.Edges {
		e := g.Edge(id)
		cost := e.Cost
		if id == edge {
			cost *= factor
		}
		send[e.From] += cost
		if cost > period {
			period = cost
		}
	}
	for _, s := range send {
		if s > period {
			period = s
		}
	}
	return period
}

// Ranked is one entry of a criticality ranking: the perturbed element
// and the throughput delta of its worst scenario.
type Ranked struct {
	Node  graph.NodeID // node-failure rankings
	Edge  int          // edge rankings
	Delta float64
	// Infeasible marks elements whose failure makes some target
	// unservable.
	Infeasible bool
}

// Report is the outcome of a what-if analysis.
type Report struct {
	Baseline *Baseline
	// Scenarios and Results are index-aligned, in Enumerate order.
	Scenarios []Scenario
	Results   []Result
	// CriticalNodes ranks node failures worst-first (largest throughput
	// loss; ties by node ID). CriticalEdges ranks edges by their worst
	// scenario across the configured factors.
	CriticalNodes []Ranked
	CriticalEdges []Ranked
	// Surviving counts the scenarios the baseline MCPH tree survives.
	Surviving int
	// DominatedScenarios counts the scenarios answered from the baseline
	// optimum without a solve (Result.Dominated).
	DominatedScenarios int
	// FastPathScenarios counts the scenarios whose evaluator
	// answered at least one bound through the tree-topology fast path —
	// e.g. a link failure whose disable mask turns the platform into a
	// tree. The results agree either way: every field exactly except
	// the bound values (Period, Throughput, Delta), which agree to 1e-9
	// (TestWhatifFastPathByteIdentical); this only reports where the
	// solver effort went.
	FastPathScenarios int
	// BaselineStats is the solver effort of the baseline solves;
	// ScenarioStats aggregates the per-scenario evaluator effort (the
	// warm-start win shows up here as fewer simplex iterations than a
	// cold replan of every scenario).
	BaselineStats steady.SolveStats
	ScenarioStats steady.SolveStats
}

// Analyze runs the full what-if analysis: baseline, concurrent
// scenario fan-out (Stream), and the criticality rankings.
// The report is deterministic for any Config.Workers.
func Analyze(p steady.Problem, cfg Config) (*Report, error) {
	if err := CheckEdgeFactors(cfg.EdgeFactors); err != nil {
		return nil, fmt.Errorf("whatif: %w", err)
	}
	ev := steady.NewEvaluator()
	base, err := NewBaseline(ev, p)
	if err != nil {
		return nil, err
	}
	scenarios := Enumerate(p.G, p.Source, cfg)
	results, stats, fast := Run(base, scenarios, cfg)
	rep := BuildReport(base, scenarios, results)
	rep.BaselineStats = ev.Stats()
	rep.ScenarioStats = stats
	rep.FastPathScenarios = fast
	return rep, nil
}

// CheckEdgeFactors rejects any edge factor that is not a finite
// non-negative number. Callers check a configuration up front rather
// than let SetEdgeCost panic mid-fan-out.
func CheckEdgeFactors(factors []float64) error {
	for _, f := range factors {
		if f < 0 || math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("edge factor %v is not a finite non-negative number", f)
		}
	}
	return nil
}

// Run evaluates the scenarios against the baseline on cfg.Workers
// concurrent workers and returns the index-aligned results, the
// aggregated scenario solver statistics, and the number of scenarios
// answered (at least partly) through the tree fast path. It is Stream
// without a deadline, lanes or emit.
func Run(base *Baseline, scenarios []Scenario, cfg Config) ([]Result, steady.SolveStats, int) {
	return Stream(context.Background(), base, scenarios, cfg, nil, nil)
}

// Stream is the scenario loop behind Run, Analyze and the serving
// layer's /v1/whatif endpoint. Dominated scenarios are answered from
// the baseline (see Eval). Each worker holds a private platform copy
// and one evaluator, which it restores to base.Ev (ResetTo; Reset when
// cfg.Cold) before every scenario it solves, so each result is what a
// fresh clone would compute and independent of scheduling, while the
// LP workspace is allocated once per worker. It returns what Run
// returns; the solver statistics are each solved scenario's
// Stats().Delta, summed.
//
// lane, when non-nil, wraps each worker's whole loop and must call loop
// exactly once: the serving layer runs worker w under a shard lane's
// lock, so scenario work and plan requests share one concurrency
// budget. emit, when non-nil, receives the results in scenario order,
// each as soon as it and every earlier one are done.
//
// When ctx ends, running solves stop mid-iteration and the scenarios
// not yet started drain without solving, as Results carrying ctx's
// error, so an abandoned analysis releases its lanes promptly.
func Stream(ctx context.Context, base *Baseline, scenarios []Scenario, cfg Config, lane func(w int, loop func()), emit func(Result)) ([]Result, steady.SolveStats, int) {
	if lane == nil {
		lane = func(_ int, loop func()) { loop() }
	}
	// One stop flag, shared by every scenario's evaluator, aborts the
	// solves in flight when ctx ends (ctx.Err below only catches the
	// scenarios that have not started).
	var stop atomic.Bool
	defer context.AfterFunc(ctx, func() { stop.Store(true) })()
	results := make([]Result, len(scenarios))
	effort := make([]steady.SolveStats, len(scenarios))
	var (
		stats steady.SolveStats
		fast  int
	)
	fanout.Ordered(len(scenarios), cfg.Workers, func(w int, claim iter.Seq[int]) {
		lane(w, func() {
			g := base.Problem.G.Clone()
			ev := steady.NewEvaluator()
			ev.SetStop(&stop)
			for i := range claim {
				sc := scenarios[i]
				if err := ctx.Err(); err != nil {
					results[i] = Result{Scenario: sc, Err: err}
					continue
				}
				if dominated(base, g, sc) {
					results[i] = fromBaseline(base, g, sc)
					continue
				}
				if cfg.Cold {
					ev.Reset()
				} else {
					ev.ResetTo(base.Ev)
				}
				before := ev.Stats()
				res := solve(base, ev, g, sc)
				if errors.Is(res.Err, lp.ErrCanceled) && ctx.Err() != nil {
					// The stop flag fired because ctx ended: report ctx's
					// reason, like the scenarios drained after this one,
					// not the solver's internal text.
					res.Err = ctx.Err()
				}
				results[i] = res
				effort[i] = ev.Stats().Delta(before)
			}
		})
	}, func(i int) {
		stats.Add(effort[i])
		if effort[i].FastPathHits > 0 {
			fast++
		}
		if emit != nil {
			emit(results[i])
		}
	})
	return results, stats, fast
}

// BuildReport assembles the rankings from index-aligned scenarios and
// results.
func BuildReport(base *Baseline, scenarios []Scenario, results []Result) *Report {
	rep := &Report{Baseline: base, Scenarios: scenarios, Results: results}
	worstEdge := make(map[int]Ranked)
	var edgeOrder []int
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if r.TreeSurvives {
			rep.Surviving++
		}
		if r.Dominated {
			rep.DominatedScenarios++
		}
		switch r.Kind {
		case KindNodeFailure:
			rep.CriticalNodes = append(rep.CriticalNodes, Ranked{Node: r.Node, Delta: r.Delta, Infeasible: r.Infeasible})
		case KindEdgeFailure, KindEdgeDegrade:
			w, seen := worstEdge[r.Edge]
			if !seen {
				edgeOrder = append(edgeOrder, r.Edge)
				w = Ranked{Edge: r.Edge, Delta: r.Delta, Infeasible: r.Infeasible}
			} else {
				if r.Delta < w.Delta {
					w.Delta = r.Delta
				}
				w.Infeasible = w.Infeasible || r.Infeasible
			}
			worstEdge[r.Edge] = w
		}
	}
	for _, id := range edgeOrder {
		rep.CriticalEdges = append(rep.CriticalEdges, worstEdge[id])
	}
	sort.SliceStable(rep.CriticalNodes, func(i, j int) bool {
		a, b := rep.CriticalNodes[i], rep.CriticalNodes[j]
		if a.Delta != b.Delta {
			return a.Delta < b.Delta
		}
		return a.Node < b.Node
	})
	sort.SliceStable(rep.CriticalEdges, func(i, j int) bool {
		a, b := rep.CriticalEdges[i], rep.CriticalEdges[j]
		if a.Delta != b.Delta {
			return a.Delta < b.Delta
		}
		return a.Edge < b.Edge
	})
	return rep
}
