package platforms

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/steady"
	"repro/internal/tree"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// lpEvaluator returns an evaluator that answers every bound by the LP.
func lpEvaluator() *steady.Evaluator {
	ev := steady.NewEvaluator()
	ev.SetFastPath(false)
	return ev
}

// TestFigure1Claims verifies every quantitative claim the paper makes
// about the Section 3 example:
//
//  1. throughput 1 is an upper bound (P7's only in-edge has cost 1);
//  2. no single multicast tree achieves it;
//  3. a combination of two trees does achieve it;
//  4. the optimum (weighted tree packing) is exactly 1.
func TestFigure1Claims(t *testing.T) {
	pl := Figure1()
	p := pl.Problem()

	lb, err := lpEvaluator().MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(lb.Period, 1, 1e-6) {
		t.Errorf("Multicast-LB period = %v, want 1", lb.Period)
	}

	_, bestSingle, err := tree.BestSingleTree(pl.G, pl.Source, pl.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if bestSingle <= 1+1e-9 {
		t.Errorf("best single tree period = %v; the paper requires > 1", bestSingle)
	}
	if !approx(bestSingle, 1.5, 1e-9) {
		t.Errorf("best single tree period = %v, want 3/2 (throughput 2/3)", bestSingle)
	}

	pk, err := tree.PackOptimal(pl.G, pl.Source, pl.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pk.Throughput, 1, 1e-6) {
		t.Errorf("optimal packing throughput = %v, want 1", pk.Throughput)
	}
	if len(pk.Trees) < 2 {
		t.Errorf("optimal packing uses %d tree(s); the paper requires >= 2", len(pk.Trees))
	}

	ub, err := lpEvaluator().ScatterUB(p)
	if err != nil {
		t.Fatal(err)
	}
	if ub.Period < pk.Period()-1e-6 || pk.Period() < lb.Period-1e-6 {
		t.Errorf("bound ordering violated: LB %v, OPT %v, UB %v", lb.Period, pk.Period(), ub.Period)
	}
}

// TestFigure1QuotedSchedule rebuilds the two trees of Figures 1(b) and
// 1(c) at rate 1/2 each and checks the solution the paper tabulates:
// one-port feasibility at throughput 1, the per-edge message counts of
// Figure 1(d) and the occupation times of Figure 1(e).
func TestFigure1QuotedSchedule(t *testing.T) {
	pl, trees := Figure1Trees()
	g := pl.G

	send := make([]float64, g.NumNodes())
	recv := make([]float64, g.NumNodes())
	rate := make([]float64, g.NumEdges())
	for _, edges := range trees {
		tr := &tree.Tree{Root: pl.Source, Edges: edges}
		if err := tr.Validate(g, pl.Source, pl.Targets); err != nil {
			t.Fatalf("quoted tree invalid: %v", err)
		}
		for _, id := range edges {
			e := g.Edge(id)
			send[e.From] += 0.5 * e.Cost
			recv[e.To] += 0.5 * e.Cost
			rate[id] += 0.5
		}
	}
	for v := range send {
		if send[v] > 1+1e-9 || recv[v] > 1+1e-9 {
			t.Fatalf("port overload at %s: send %v recv %v", g.Name(graph.NodeID(v)), send[v], recv[v])
		}
	}

	var rates, occ []float64
	for _, id := range g.ActiveEdges() {
		if rate[id] == 0 {
			t.Errorf("edge %d unused; Figure 1(d) labels every edge", id)
		}
		rates = append(rates, rate[id])
		occ = append(occ, rate[id]*g.Edge(id).Cost)
	}
	wantRates := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1, 1, 1, 1, 1, 1, 1, 1}
	wantOcc := []float64{0.1, 0.1, 0.2, 0.2, 0.2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1, 1, 1}
	checkMultiset(t, "message counts (Fig 1d)", rates, wantRates)
	checkMultiset(t, "occupation times (Fig 1e)", occ, wantOcc)

	// The saturated ports quoted in the text.
	for _, name := range []string{"Psource", "P1", "P2", "P3", "P4", "P6"} {
		v, _ := g.NodeByName(name)
		if !approx(send[v], 1, 1e-9) {
			t.Errorf("%s should be send-saturated, got %v", name, send[v])
		}
	}
	for _, name := range []string{"P1", "P6", "P7", "P11"} {
		v, _ := g.NodeByName(name)
		if !approx(recv[v], 1, 1e-9) {
			t.Errorf("%s should be receive-saturated, got %v", name, recv[v])
		}
	}
}

func checkMultiset(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d values, want %d", what, len(got), len(want))
		return
	}
	g := append([]float64(nil), got...)
	sort.Float64s(g)
	for i := range g {
		if !approx(g[i], want[i], 1e-9) {
			t.Errorf("%s: sorted[%d] = %v, want %v (full: %v)", what, i, g[i], want[i], g)
			return
		}
	}
}

// TestFigure4Claims checks the three quoted bound values: scatter
// throughput 1/3 < optimum 1/2 < optimistic bound 2/3.
func TestFigure4Claims(t *testing.T) {
	pl := Figure4()
	p := pl.Problem()
	ub, err := lpEvaluator().ScatterUB(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(ub.Throughput(), 1.0/3, 1e-6) {
		t.Errorf("scatter throughput = %v, want 1/3", ub.Throughput())
	}
	lb, err := lpEvaluator().MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(lb.Throughput(), 2.0/3, 1e-6) {
		t.Errorf("optimistic throughput = %v, want 2/3", lb.Throughput())
	}
	pk, err := tree.PackOptimal(pl.G, pl.Source, pl.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pk.Throughput, 0.5, 1e-6) {
		t.Errorf("optimal throughput = %v, want 1/2", pk.Throughput)
	}
}

// TestFigure5Claims checks the |Ptarget| gap gadget: scatter period 3,
// optimistic period 1, optimum 1 (a single tree suffices here).
func TestFigure5Claims(t *testing.T) {
	pl := Figure5()
	p := pl.Problem()
	ub, err := lpEvaluator().ScatterUB(p)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := lpEvaluator().MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(ub.Period, 3, 1e-6) || !approx(lb.Period, 1, 1e-6) {
		t.Errorf("periods = (%v, %v), want (3, 1)", ub.Period, lb.Period)
	}
	if gap := ub.Period / lb.Period; !approx(gap, float64(len(pl.Targets)), 1e-6) {
		t.Errorf("gap = %v, want %d", gap, len(pl.Targets))
	}
	_, single, err := tree.BestSingleTree(pl.G, pl.Source, pl.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(single, 1, 1e-9) {
		t.Errorf("single tree period = %v, want 1", single)
	}
}

func TestPlatformProblemPanicsOnCorruption(t *testing.T) {
	pl := Figure5()
	pl.Targets = append(pl.Targets, pl.Source)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pl.Problem()
}

// TestFigure1PackingDeterministic checks that the exact optimum of the
// Section 3 example returns the same trees, edge for edge and rate for
// rate, on every call: the Steiner pricing extracts each tree from its
// edge set in edge-ID order, not in map order.
func TestFigure1PackingDeterministic(t *testing.T) {
	pl := Figure1()
	first, err := tree.PackOptimal(pl.G, pl.Source, pl.Targets)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 20; call++ {
		pk, err := tree.PackOptimal(pl.G, pl.Source, pl.Targets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pk.Trees, first.Trees) {
			t.Fatalf("call %d: packed trees differ from the first call's", call)
		}
	}
}
