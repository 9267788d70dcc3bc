package heur

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/platforms"
	"repro/internal/steady"
)

// TestHeuristicsGoldenFigure4 pins the full heuristic registry output
// on the paper's Figure 4 gadget: names, periods, and the
// deterministically-ordered Kept/Sources sets. This is the regression
// baseline for future solver or heuristic changes — all four
// heuristics reach the exact optimum (period 2, between Multicast-LB
// at 1.5 and the scatter bound at 3), REDUCED BROADCAST and AUGMENTED
// MULTICAST both settle on the platform without the dead relay C3, and
// AUGMENTED SOURCES promotes exactly C1.
func TestHeuristicsGoldenFigure4(t *testing.T) {
	pl := platforms.Figure4()
	p := pl.Problem()
	c1, ok := pl.G.NodeByName("C1")
	if !ok {
		t.Fatal("Figure 4 platform has no node C1")
	}
	c3, ok := pl.G.NodeByName("C3")
	if !ok {
		t.Fatal("Figure 4 platform has no node C3")
	}
	var keptWant []graph.NodeID
	for v := 0; v < pl.G.NumNodes(); v++ {
		if graph.NodeID(v) != c3 {
			keptWant = append(keptWant, graph.NodeID(v))
		}
	}

	want := []struct {
		name    string
		period  float64
		kept    []graph.NodeID // nil = not applicable
		sources []graph.NodeID
		tree    bool
	}{
		{name: "MCPH", period: 2, tree: true},
		{name: "Augm. MC", period: 2, kept: keptWant},
		{name: "Red. BC", period: 2, kept: keptWant},
		{name: "Multisource MC", period: 2, sources: []graph.NodeID{c1}},
	}

	hs := AllWith(steady.NewEvaluator())
	if len(hs) != len(want) {
		t.Fatalf("registry has %d heuristics, want %d", len(hs), len(want))
	}
	for i, h := range hs {
		w := want[i]
		if h.Name != w.name {
			t.Errorf("heuristic %d name = %q, want %q", i, h.Name, w.name)
			continue
		}
		res, err := h.Run(p)
		if err != nil {
			t.Errorf("%s: %v", h.Name, err)
			continue
		}
		if res.Name != w.name {
			t.Errorf("%s: result name = %q", h.Name, res.Name)
		}
		if !approx(res.Period, w.period, 1e-6) {
			t.Errorf("%s: period = %v, want %v", h.Name, res.Period, w.period)
		}
		if w.kept != nil && !reflect.DeepEqual(res.Kept, w.kept) {
			t.Errorf("%s: kept = %v, want %v", h.Name, res.Kept, w.kept)
		}
		if w.sources != nil && !reflect.DeepEqual(res.Sources, w.sources) {
			t.Errorf("%s: sources = %v, want %v", h.Name, res.Sources, w.sources)
		}
		if w.tree != (res.Tree != nil) {
			t.Errorf("%s: tree presence = %v, want %v", h.Name, res.Tree != nil, w.tree)
		}
	}
}

// TestHeuristicsGoldenStableAcrossSharedEvaluator re-runs the registry
// on one shared evaluator and checks the results are identical to runs
// on a private evaluator each — caching and pooled warm starts must
// never change heuristic output.
func TestHeuristicsGoldenStableAcrossSharedEvaluator(t *testing.T) {
	pl := platforms.Figure4()
	p := pl.Problem()
	ev := steady.NewEvaluator()
	shared := AllWith(ev)
	for i := range shared {
		private := AllWith(steady.NewEvaluator())
		a, err := private[i].Run(p)
		if err != nil {
			t.Fatalf("%s (private): %v", private[i].Name, err)
		}
		b, err := shared[i].Run(p)
		if err != nil {
			t.Fatalf("%s (shared): %v", shared[i].Name, err)
		}
		if !approx(a.Period, b.Period, 1e-9) {
			t.Errorf("%s: private period %v vs shared %v", private[i].Name, a.Period, b.Period)
		}
		if !reflect.DeepEqual(a.Kept, b.Kept) || !reflect.DeepEqual(a.Sources, b.Sources) {
			t.Errorf("%s: private kept/sources %v/%v vs shared %v/%v",
				private[i].Name, a.Kept, a.Sources, b.Kept, b.Sources)
		}
	}
	st := ev.Stats()
	if st.CacheHits == 0 {
		t.Errorf("shared evaluator recorded no cache hits: %+v", st)
	}
}
