package whatif

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/steady"
)

// nearTreeProblem builds a tree of integer-cost full-duplex links plus
// one directed chord arc, and returns the problem and the chord's edge
// ID. The baseline platform is ClassGeneral because of the chord; the
// edge-failure scenario that disables it is exactly a "link failure
// whose disable mask turns the platform into a tree", so its what-if
// clone evaluates combinatorially.
func nearTreeProblem(t *testing.T) (steady.Problem, int) {
	t.Helper()
	g := graph.New()
	ids := g.AddNodes("n", 10)
	parents := []int{0, 0, 1, 1, 2, 4, 4, 5, 6}
	costs := []float64{2, 5, 3, 7, 1, 4, 6, 2, 3}
	for i, p := range parents {
		g.AddLink(ids[p], ids[i+1], costs[i])
	}
	// The chord closes a cycle between two branches.
	chord := g.AddEdge(ids[3], ids[7], 4)
	p, err := steady.NewProblem(g, ids[0], ids[1:])
	if err != nil {
		t.Fatal(err)
	}
	return p, chord
}

// runWith evaluates the default link-failure + node-failure family on
// base evaluators with the fast path on or off.
func runWith(t *testing.T, p steady.Problem, fastPath bool) (*Report, []Result, int) {
	t.Helper()
	ev := steady.NewEvaluator()
	ev.SetFastPath(fastPath)
	base, err := NewBaseline(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NodeFailures: true, EdgeFactors: []float64{0, 2.5}}
	scenarios := Enumerate(p.G, p.Source, cfg)
	results, _, fast := Run(base, scenarios, cfg)
	rep := BuildReport(base, scenarios, results)
	rep.FastPathScenarios = fast
	return rep, results, fast
}

// TestWhatifFastPathByteIdentical is the satellite regression test:
// scenario evaluation must produce byte-identical results whether the
// tree fast path answers the tree-shaped scenarios or the LP does. On
// this platform the baseline is general (a chord), and exactly the
// scenarios whose disable mask removes the chord classify as trees —
// those are the ones the fast-path run answers combinatorially.
func TestWhatifFastPathByteIdentical(t *testing.T) {
	p, chord := nearTreeProblem(t)
	repFast, fastResults, fastCount := runWith(t, p, true)
	repLP, lpResults, lpCount := runWith(t, p, false)

	if lpCount != 0 {
		t.Fatalf("forced-LP run reported %d fast-path scenarios", lpCount)
	}
	if fastCount == 0 {
		t.Fatal("fast-path run reported no fast-path scenarios on a near-tree platform")
	}

	if !reflect.DeepEqual(fastResults, lpResults) {
		for i := range fastResults {
			if !reflect.DeepEqual(fastResults[i], lpResults[i]) {
				t.Fatalf("scenario %d (%+v): fast %+v vs LP %+v",
					i, fastResults[i].Scenario, fastResults[i], lpResults[i])
			}
		}
		t.Fatal("results diverge")
	}
	fastJSON, err := json.Marshal(fastResults)
	if err != nil {
		t.Fatal(err)
	}
	lpJSON, err := json.Marshal(lpResults)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fastJSON, lpJSON) {
		t.Fatal("serialized results are not byte-identical")
	}

	// The rankings and survival counts are derived from the results, so
	// they agree too.
	if !reflect.DeepEqual(repFast.CriticalNodes, repLP.CriticalNodes) ||
		!reflect.DeepEqual(repFast.CriticalEdges, repLP.CriticalEdges) ||
		repFast.Surviving != repLP.Surviving {
		t.Fatal("derived report fields diverge between fast-path and forced-LP runs")
	}

	// Sanity: the chord-failure scenario is among the fast-path ones —
	// evaluate it directly and watch the clone's counters.
	ev := steady.NewEvaluator()
	base, err := NewBaseline(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	sev := base.Ev.Clone()
	res := Eval(base, sev, p.G.Clone(), Scenario{Kind: KindEdgeFailure, Edge: chord})
	if res.Err != nil {
		t.Fatalf("chord failure: %v", res.Err)
	}
	if sev.Stats().FastPathHits == 0 {
		t.Error("failing the chord did not take the fast path")
	}
}

// TestWhatifPureTreeAllFastPath pins the all-tree extreme: on a pure
// tree platform no node- or edge-failure scenario reaches the LP. The
// 7 node failures (all targets) and the 7 parent-to-child arc failures
// evaluate combinatorially; the 7 child-to-parent arcs carry no load in
// the baseline, so their failures are answered from it without any
// evaluation.
func TestWhatifPureTreeAllFastPath(t *testing.T) {
	g := graph.New()
	ids := g.AddNodes("n", 8)
	parents := []int{0, 0, 1, 2, 2, 4, 5}
	for i, pa := range parents {
		g.AddLink(ids[pa], ids[i+1], float64(i%3+1))
	}
	p, err := steady.NewProblem(g, ids[0], ids[1:])
	if err != nil {
		t.Fatal(err)
	}
	ev := steady.NewEvaluator()
	base, err := NewBaseline(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NodeFailures: true, EdgeFactors: []float64{0}}
	scenarios := Enumerate(p.G, p.Source, cfg)
	results, stats, fast := Run(base, scenarios, cfg)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %d: %v", i, r.Err)
		}
	}
	const fastWant, dominatedWant = 14, 7
	if len(scenarios) != fastWant+dominatedWant {
		t.Fatalf("enumerated %d scenarios, want %d", len(scenarios), fastWant+dominatedWant)
	}
	if fast != fastWant {
		t.Errorf("fast-path scenarios = %d, want %d", fast, fastWant)
	}
	if rep := BuildReport(base, scenarios, results); rep.DominatedScenarios != dominatedWant {
		t.Errorf("dominated scenarios = %d, want %d", rep.DominatedScenarios, dominatedWant)
	}
	for _, r := range results {
		up := false // a child-to-parent arc
		if r.Kind == KindEdgeFailure {
			e := g.Edge(r.Edge)
			up = e.From != ids[0] && e.To == ids[parents[int(e.From)-1]]
		}
		if r.Dominated != up {
			t.Errorf("scenario %+v: dominated = %v, want it for exactly the child-to-parent arcs", r.Scenario, r.Dominated)
		}
	}
	if stats.Solves != 0 {
		t.Errorf("scenario fan-out ran %d LP solves on a pure tree, want 0", stats.Solves)
	}
	if stats.FastPathHits < fastWant {
		t.Errorf("fast-path hits = %d < fast-path scenarios = %d", stats.FastPathHits, fastWant)
	}
}
