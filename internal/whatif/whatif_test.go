package whatif

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/steady"
	"repro/internal/tiers"
)

// relayProblem builds the small relay platform: S reaches t1,t2 fast
// through relay r, slowly via direct edges.
func relayProblem(t *testing.T) (steady.Problem, map[string]graph.NodeID, map[string]int) {
	t.Helper()
	g := graph.New()
	s := g.AddNode("S")
	r := g.AddNode("r")
	t1 := g.AddNode("t1")
	t2 := g.AddNode("t2")
	x := g.AddNode("x") // idle bystander
	edges := map[string]int{
		"S>r":  g.AddEdge(s, r, 1),
		"r>t1": g.AddEdge(r, t1, 1),
		"r>t2": g.AddEdge(r, t2, 1),
		"S>t1": g.AddEdge(s, t1, 6),
		"S>t2": g.AddEdge(s, t2, 6),
		"S>x":  g.AddEdge(s, x, 1),
	}
	p, err := steady.NewProblem(g, s, []graph.NodeID{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]graph.NodeID{"S": s, "r": r, "t1": t1, "t2": t2, "x": x}
	return p, nodes, edges
}

func TestEnumerateDeterministicOrder(t *testing.T) {
	p, nodes, _ := relayProblem(t)
	cfg := Config{NodeFailures: true, EdgeFactors: []float64{0, 1, 4}, AllSources: true}
	scs := Enumerate(p.G, p.Source, cfg)
	// 4 node failures + 6 edges x {failure, x4 degrade} + 4 promotions;
	// the factor 1 no-op is skipped.
	if want := 4 + 6*2 + 4; len(scs) != want {
		t.Fatalf("enumerated %d scenarios, want %d", len(scs), want)
	}
	if scs[0].Kind != KindNodeFailure || scs[0].Node != nodes["r"] {
		t.Errorf("first scenario %+v, want node-failure of r", scs[0])
	}
	// Edge scenarios come edge-major with factors in config order.
	if scs[4].Kind != KindEdgeFailure || scs[4].Edge != 0 {
		t.Errorf("scenario 4 = %+v, want failure of edge 0", scs[4])
	}
	if scs[5].Kind != KindEdgeDegrade || scs[5].Edge != 0 || scs[5].Factor != 4 {
		t.Errorf("scenario 5 = %+v, want x4 degrade of edge 0", scs[5])
	}
	if last := scs[len(scs)-1]; last.Kind != KindPromoteSource || last.Node != nodes["x"] {
		t.Errorf("last scenario %+v, want promotion of x", last)
	}
	// Identical calls enumerate identically.
	again := Enumerate(p.G, p.Source, cfg)
	for i := range scs {
		if scs[i] != again[i] {
			t.Fatalf("enumeration is not deterministic at %d: %+v vs %+v", i, scs[i], again[i])
		}
	}
}

// TestAnalyzeRelay checks the semantics on the relay platform, where
// criticality is obvious: the relay r is the critical node, its out
// edges the critical links, and x is useless as a secondary source.
func TestAnalyzeRelay(t *testing.T) {
	p, nodes, edges := relayProblem(t)
	rep, err := Analyze(p, Config{NodeFailures: true, EdgeFactors: []float64{0, 4}, AllSources: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Results {
		if r.Err != nil {
			t.Fatalf("scenario %d (%+v) failed: %v", i, rep.Scenarios[i], r.Err)
		}
	}
	if rep.Baseline.LB.Infeasible() || rep.Baseline.Tree == nil {
		t.Fatalf("unexpected baseline: %+v", rep.Baseline)
	}

	// Node ranking: r must be the worst non-target node, and the target
	// failures mark TargetLost.
	if len(rep.CriticalNodes) != 4 {
		t.Fatalf("ranked %d nodes, want 4", len(rep.CriticalNodes))
	}
	worstNonTarget := graph.None
	for _, rk := range rep.CriticalNodes {
		if rk.Node != nodes["t1"] && rk.Node != nodes["t2"] {
			worstNonTarget = rk.Node
			break
		}
	}
	if worstNonTarget != nodes["r"] {
		t.Errorf("worst non-target node = %v, want relay r; ranking %+v", worstNonTarget, rep.CriticalNodes)
	}
	byNode := map[graph.NodeID]Result{}
	byPromo := map[graph.NodeID]Result{}
	for _, r := range rep.Results {
		switch r.Kind {
		case KindNodeFailure:
			byNode[r.Node] = r
		case KindPromoteSource:
			byPromo[r.Node] = r
		}
	}
	if r := byNode[nodes["t1"]]; !r.TargetLost {
		t.Errorf("failing target t1 not marked TargetLost: %+v", r)
	}
	if r := byNode[nodes["x"]]; r.TargetLost || math.Abs(r.Delta) > 1e-9 {
		t.Errorf("failing the bystander changed throughput: %+v", r)
	}
	if r := byNode[nodes["x"]]; !r.TreeSurvives {
		t.Errorf("tree should survive losing the bystander: %+v", r)
	}
	if r := byNode[nodes["r"]]; r.TreeSurvives || r.Delta >= 0 {
		t.Errorf("losing the relay must kill the MCPH tree and throughput: %+v", r)
	}

	// Edge ranking: an r out-edge (or S>r) must rank worst, and the
	// failure of a slow direct edge must be harmless.
	if len(rep.CriticalEdges) != 6 {
		t.Fatalf("ranked %d edges, want 6", len(rep.CriticalEdges))
	}
	worst := rep.CriticalEdges[0]
	if worst.Edge == edges["S>x"] || worst.Delta >= 0 {
		t.Errorf("worst edge %+v is implausible", worst)
	}
	var bystander Ranked
	for _, rk := range rep.CriticalEdges {
		if rk.Edge == edges["S>x"] {
			bystander = rk
		}
	}
	if math.Abs(bystander.Delta) > 1e-9 || bystander.Infeasible {
		t.Errorf("bystander edge ranked critical: %+v", bystander)
	}

	// Promotion deltas are measured against the multisource baseline.
	// (They may be negative: a promoted source must receive the full
	// series itself, so promoting a useless node costs bandwidth.)
	if len(byPromo) != 4 {
		t.Fatalf("got %d promotion results, want 4", len(byPromo))
	}
	baseThr := rep.Baseline.MultiSource.Throughput()
	for n, r := range byPromo {
		if math.Abs(r.Delta-(r.Throughput-baseThr)) > 1e-12 {
			t.Errorf("promotion delta of %v inconsistent: %+v (baseline %v)", n, r, baseThr)
		}
	}
}

// TestAnalyzeRejectsBadEdgeFactors: a negative, infinite or NaN edge
// factor fails Analyze up front with the factor named, before any
// solve; zero (a link failure) and finite factors pass the check.
func TestAnalyzeRejectsBadEdgeFactors(t *testing.T) {
	p, _, _ := relayProblem(t)
	for _, f := range []float64{-1, math.Inf(1), math.NaN()} {
		cfg := DefaultConfig()
		cfg.EdgeFactors = []float64{0, f}
		if _, err := Analyze(p, cfg); err == nil || !strings.Contains(err.Error(), "edge factor") {
			t.Errorf("factor %v: Analyze error %v, want an edge factor error", f, err)
		}
	}
	if err := CheckEdgeFactors([]float64{0, 0.5, 4}); err != nil {
		t.Errorf("CheckEdgeFactors(0, 0.5, 4) = %v, want nil", err)
	}
}

// TestEdgeDegradeScalesTree: degrading a tree edge recomputes the
// surviving tree's period; a failure of the same edge kills the tree.
func TestEdgeDegradeScalesTree(t *testing.T) {
	p, _, edges := relayProblem(t)
	rep, err := Analyze(p, Config{EdgeFactors: []float64{0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	treeEdge := edges["S>r"] // MCPH routes through the relay
	var fail, degrade *Result
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Edge != treeEdge {
			continue
		}
		switch r.Kind {
		case KindEdgeFailure:
			fail = r
		case KindEdgeDegrade:
			degrade = r
		}
	}
	if fail == nil || degrade == nil {
		t.Fatal("missing scenarios for the tree edge")
	}
	if fail.TreeSurvives {
		t.Errorf("tree survived losing its own edge: %+v", fail)
	}
	if !degrade.TreeSurvives || degrade.TreePeriod <= rep.Baseline.TreePeriod {
		t.Errorf("degrading a tree edge must slow the surviving tree: %+v (baseline %v)",
			degrade, rep.Baseline.TreePeriod)
	}
}

// TestAnalyzeDeterministicAcrossWorkers is the whatif core of the
// serving determinism contract: the report must be bit-identical at 1
// and 8 workers, warm or cold.
func TestAnalyzeDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("tiers-platform analysis is slow")
	}
	pl, err := tiers.Generate(tiers.Small(3))
	if err != nil {
		t.Fatal(err)
	}
	targets := pl.RandomTargets(exp.NewRNG(7, 0), 0.25)
	p, err := steady.NewProblem(pl.G, pl.Source, targets)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NodeFailures: true, EdgeFactors: []float64{2}, AllSources: false}
	serial, err := Analyze(p, withWorkers(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Analyze(p, withWorkers(cfg, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Results) != len(parallel.Results) || len(serial.Results) == 0 {
		t.Fatalf("result counts differ: %d vs %d", len(serial.Results), len(parallel.Results))
	}
	for i := range serial.Results {
		a, b := serial.Results[i], parallel.Results[i]
		if a.Scenario != b.Scenario || a.Infeasible != b.Infeasible || a.TargetLost != b.TargetLost ||
			a.TreeSurvives != b.TreeSurvives ||
			math.Float64bits(a.Period) != math.Float64bits(b.Period) ||
			math.Float64bits(a.Delta) != math.Float64bits(b.Delta) ||
			math.Float64bits(a.TreePeriod) != math.Float64bits(b.TreePeriod) {
			t.Fatalf("scenario %d diverges across worker counts:\n1: %+v\n8: %+v", i, a, b)
		}
	}
	if serial.ScenarioStats != parallel.ScenarioStats {
		t.Errorf("scenario solver stats diverge: %+v vs %+v", serial.ScenarioStats, parallel.ScenarioStats)
	}
}

func withWorkers(cfg Config, w int) Config {
	cfg.Workers = w
	return cfg
}

// bigBroadcastInstance builds the dense-target (broadcast-shaped)
// instance of the Figure 11 big platform plus the first n LAN hosts as
// failure candidates — leaves, so every failure scenario stays
// feasible and actually re-solves the cutting-plane LB, which is the
// regime where the baseline cut pool warm-starts every scenario.
func bigBroadcastInstance(t testing.TB, n int) (steady.Problem, []graph.NodeID) {
	t.Helper()
	pl, err := tiers.Generate(tiers.Big(11))
	if err != nil {
		t.Fatal(err)
	}
	var targets []graph.NodeID
	for _, v := range pl.G.ActiveNodes() {
		if v != pl.Source {
			targets = append(targets, v)
		}
	}
	if len(pl.LAN) < n {
		t.Fatalf("platform has %d LAN hosts, want >= %d", len(pl.LAN), n)
	}
	fail := append([]graph.NodeID(nil), pl.LAN[:n]...)
	p, err := steady.NewProblem(pl.G, pl.Source, targets)
	if err != nil {
		t.Fatal(err)
	}
	return p, fail
}

// TestWarmStartBeatsColdReplan pins the point of the engine (and the
// acceptance bar of BenchmarkWhatifWarm): evaluating node failures of
// a broadcast-shaped instance of the Figure 11 big platform — the
// cutting-plane regime of Multicast-LB, where the baseline's pooled
// cuts seed every perturbed solve — must cost at least 1.5x fewer
// simplex iterations on baseline-seeded clones than replanning every
// scenario cold, with identical feasibility and matching periods.
//
// (The bar was 2x when the solver swept phase-1 artificials out in an
// uncounted eviction pass; the LU engine evicts them lazily through
// the ratio test, so both sides of this comparison now count every
// pivot — warm's fixed per-scenario master solve grew by its formerly
// hidden share, compressing the observed ratio.)
func TestWarmStartBeatsColdReplan(t *testing.T) {
	if testing.Short() {
		t.Skip("tiers-platform analysis is slow")
	}
	p, fail := bigBroadcastInstance(t, 8)
	cfg := Config{NodeFailures: true, FailNodes: fail}
	warm, err := Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldCfg := cfg
	coldCfg.Cold = true
	cold, err := Analyze(p, coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	wi := warm.ScenarioStats.Iterations + warm.ScenarioStats.DualIters
	ci := cold.ScenarioStats.Iterations + cold.ScenarioStats.DualIters
	if wi == 0 || ci == 0 {
		t.Fatalf("no solver activity: warm %d cold %d", wi, ci)
	}
	if 3*wi > 2*ci {
		t.Errorf("warm scenarios took %d simplex iterations vs %d cold — want at least a 1.5x win", wi, ci)
	}
	for i := range warm.Results {
		a, b := warm.Results[i], cold.Results[i]
		if a.Infeasible != b.Infeasible {
			t.Fatalf("scenario %d feasibility differs warm/cold: %+v vs %+v", i, a, b)
		}
		if !a.Infeasible && math.Abs(a.Period-b.Period) > 1e-6*(1+b.Period) {
			t.Errorf("scenario %d period differs warm/cold: %v vs %v", i, a.Period, b.Period)
		}
	}
}

// TestStreamCanceledDrains: under a context that has already ended,
// Stream solves nothing — every scenario is still emitted, in
// enumeration order, carrying the context's error — and each worker's
// loop runs inside the caller's lane wrapper exactly once.
func TestStreamCanceledDrains(t *testing.T) {
	p, _, _ := relayProblem(t)
	base, err := NewBaseline(steady.NewEvaluator(), p)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := Enumerate(p.G, p.Source, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var lanes atomic.Int64
	lane := func(_ int, loop func()) {
		lanes.Add(1)
		loop()
	}
	var emitted []Result
	results, stats, fast := Stream(ctx, base, scenarios, Config{Workers: 2}, lane, func(r Result) {
		emitted = append(emitted, r)
	})
	if len(emitted) != len(scenarios) || len(results) != len(scenarios) {
		t.Fatalf("emitted %d and returned %d results for %d scenarios", len(emitted), len(results), len(scenarios))
	}
	for i, r := range emitted {
		if r.Scenario != scenarios[i] || !errors.Is(r.Err, context.Canceled) {
			t.Errorf("line %d = %+v, want scenario %+v with the context's error", i, r, scenarios[i])
		}
		if results[i].Scenario != r.Scenario || results[i].Err != r.Err {
			t.Errorf("result %d differs from its emitted line", i)
		}
	}
	if stats.Solves != 0 || stats.Evaluations != 0 || fast != 0 {
		t.Errorf("canceled stream solved: stats %+v, fast-path scenarios %d", stats, fast)
	}
	if n := lanes.Load(); n != 2 {
		t.Errorf("lane wrapper ran %d times, want once per worker (2)", n)
	}
}

// TestStreamCanceledMidSolve cancels a 2-worker Stream on the big
// broadcast instance as soon as the first scenario is emitted, while
// the workers are inside later solves. Every scenario after that either
// completed or carries exactly the context's error: a solve the stop
// flag aborted reports context.Canceled like the scenarios drained
// after it, never the solver's own "lp: solve canceled (...)" text.
// The 32 scenarios leave far more work than the workers can finish
// before the first emit, so some are always cancelled.
func TestStreamCanceledMidSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("tiers-platform analysis is slow")
	}
	p, fail := bigBroadcastInstance(t, 32)
	cfg := Config{NodeFailures: true, FailNodes: fail, Workers: 2}
	base, err := NewBaseline(steady.NewEvaluator(), p)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := Enumerate(p.G, p.Source, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lines []string
	Stream(ctx, base, scenarios, cfg, nil, func(r Result) {
		cancel()
		line := "ok"
		if r.Err != nil {
			line = r.Err.Error()
		}
		lines = append(lines, line)
	})
	if len(lines) != len(scenarios) {
		t.Fatalf("emitted %d lines for %d scenarios", len(lines), len(scenarios))
	}
	if lines[0] != "ok" {
		t.Fatalf("first scenario = %q, want a completed evaluation", lines[0])
	}
	canceled := 0
	for i, line := range lines {
		switch line {
		case "ok":
		case context.Canceled.Error():
			canceled++
		default:
			t.Errorf("scenario %d reports %q, want %q or a completed evaluation", i, line, context.Canceled.Error())
		}
	}
	if canceled == 0 {
		t.Errorf("no scenario was canceled: %q", lines)
	}
}

// TestAnalyzePromotionsAcrossWorkers pins the promotion scenarios on
// the shared baseline path master: every worker restores its evaluator
// to the baseline (ResetTo), which shares the baseline's solved
// MulticastMultiSource-UB master read-only, and each promotion grows
// its own copy of it warm. The report must be identical at 1 and 4
// workers (run it under -race to check the sharing), every scenario
// solve must be warm, and each promotion must match a fresh evaluator's
// cold solve to 1e-9.
func TestAnalyzePromotionsAcrossWorkers(t *testing.T) {
	pl, err := tiers.Generate(tiers.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := steady.NewProblem(pl.G, pl.Source, pl.RandomTargets(exp.NewRNG(7, 2), 0.4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{AllSources: true}
	serial, err := Analyze(p, withWorkers(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Analyze(p, withWorkers(cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Results) != len(pl.G.ActiveNodes())-1 {
		t.Fatalf("%d promotion scenarios, want one per non-source node", len(serial.Results))
	}
	for i, a := range serial.Results {
		if b := parallel.Results[i]; a != b {
			t.Fatalf("scenario %d diverges across worker counts:\n1: %+v\n4: %+v", i, a, b)
		}
		if a.Err != nil {
			t.Fatalf("scenario %d: %v", i, a.Err)
		}
		cold, err := steady.NewEvaluator().MultiSourceUB(p, []graph.NodeID{a.Node})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Period-cold.Period) > 1e-9*cold.Period {
			t.Errorf("promotion of %s: period %v, cold %v", pl.G.Name(a.Node), a.Period, cold.Period)
		}
	}
	if serial.ScenarioStats != parallel.ScenarioStats {
		t.Errorf("scenario solver stats diverge: %+v vs %+v", serial.ScenarioStats, parallel.ScenarioStats)
	}
	if st := serial.ScenarioStats; st.ColdSolves != 0 || st.WarmSolves == 0 {
		t.Errorf("promotion scenarios solved %d cold and %d warm, want every solve warm", st.ColdSolves, st.WarmSolves)
	}
}
