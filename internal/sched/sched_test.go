package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/steady"
	"repro/internal/tree"
)

func TestFromLoadsSimple(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	b := g.AddNode("b")
	e1 := g.AddEdge(s, a, 1)
	e2 := g.AddEdge(s, b, 1)
	occ := make([]float64, g.NumEdges())
	occ[e1] = 0.5
	occ[e2] = 0.5
	tt, err := FromLoads(g, occ, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Slots) != 2 {
		t.Fatalf("slots = %+v", tt.Slots)
	}
	// Both leave S: they must not overlap.
	if tt.Slots[0].Start+tt.Slots[0].Length > tt.Slots[1].Start+1e-9 &&
		tt.Slots[1].Start+tt.Slots[1].Length > tt.Slots[0].Start+1e-9 {
		t.Fatalf("overlapping sends: %+v", tt.Slots)
	}
}

func TestFromLoadsOverload(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	e := g.AddEdge(s, a, 1)
	occ := make([]float64, g.NumEdges())
	occ[e] = 2
	if _, err := FromLoads(g, occ, 1); err == nil {
		t.Fatal("overload accepted")
	}
}

func TestFromLoadsParallelEdges(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	e1 := g.AddEdge(s, a, 1)
	e2 := g.AddEdge(s, a, 2) // parallel link, different speed
	occ := make([]float64, g.NumEdges())
	occ[e1] = 0.25
	occ[e2] = 0.5
	tt, err := FromLoads(g, occ, 1)
	if err != nil {
		t.Fatal(err)
	}
	per := map[int]float64{}
	for _, sl := range tt.Slots {
		per[sl.EdgeID] += sl.Length
	}
	if math.Abs(per[e1]-0.25) > 1e-6 || math.Abs(per[e2]-0.5) > 1e-6 {
		t.Fatalf("per-edge totals = %v", per)
	}
}

// TestScatterScheduleRealisable closes the loop the paper describes for
// scatter-like solutions: solve Multicast-UB, then actually build the
// conflict-free periodic timetable achieving its period.
func TestScatterScheduleRealisable(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	hub := g.AddNode("A")
	ts := g.AddNodes("t", 3)
	g.AddEdge(s, hub, 1)
	for _, v := range ts {
		g.AddEdge(hub, v, 1.0/3)
	}
	p, err := steady.NewProblem(g, s, ts)
	if err != nil {
		t.Fatal(err)
	}
	ev := steady.NewEvaluator()
	ev.SetFastPath(false)
	ub, err := ev.ScatterUB(p)
	if err != nil {
		t.Fatal(err)
	}
	occ := make([]float64, g.NumEdges())
	for _, id := range g.ActiveEdges() {
		occ[id] = ub.EdgeLoad[id] * g.Edge(id).Cost
	}
	tt, err := FromLoads(g, occ, ub.Period)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Slots) == 0 {
		t.Fatal("empty timetable")
	}
}

// TestFigure1TreesSchedule orchestrates the paper's two rate-1/2 trees
// into a period-1 timetable: the constructive counterpart of the
// "occupation time of each edge" table in Figure 1(e).
func TestFigure1TreesSchedule(t *testing.T) {
	// Reuse the platform through the tree package to avoid an import
	// cycle with platforms (which imports steady only).
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	b := g.AddNode("b")
	e1 := g.AddEdge(s, a, 0.5)
	e2 := g.AddEdge(a, b, 0.5)
	e3 := g.AddEdge(s, b, 0.5)
	t1 := &tree.Tree{Root: s, Edges: []int{e1, e2}}
	t2 := &tree.Tree{Root: s, Edges: []int{e3, g.AddEdge(b, a, 0.5)}}
	tt, err := FromTrees(g, []tree.WeightedTree{{Tree: t1, Rate: 1}, {Tree: t2, Rate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if tt.Period != 1 {
		t.Fatalf("period = %v", tt.Period)
	}
}

func TestValidateCatchesBadSlots(t *testing.T) {
	g := graph.New()
	s := g.AddNode("S")
	a := g.AddNode("a")
	e := g.AddEdge(s, a, 1)
	occ := make([]float64, g.NumEdges())
	occ[e] = 0.5
	tt := &Timetable{Period: 1, Slots: []Slot{{EdgeID: e, Start: 0.8, Length: 0.5}}}
	if err := tt.Validate(g, occ); err == nil {
		t.Fatal("slot escaping period accepted")
	}
	tt = &Timetable{Period: 1, Slots: []Slot{{EdgeID: e, Start: 0, Length: 0.4}}}
	if err := tt.Validate(g, occ); err == nil {
		t.Fatal("wrong total accepted")
	}
}

// Property: random load profiles that respect the port bound always
// orchestrate into a valid timetable whose per-edge totals are exact.
func TestFromLoadsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		n := 3 + rng.Intn(6)
		ids := g.AddNodes("n", n)
		for i := 0; i < 3*n; i++ {
			a := ids[rng.Intn(n)]
			b := ids[rng.Intn(n)]
			if a != b {
				g.AddEdge(a, b, 0.2+rng.Float64())
			}
		}
		// Random occupations, then scale so no port exceeds the period.
		occ := make([]float64, g.NumEdges())
		for _, id := range g.ActiveEdges() {
			occ[id] = rng.Float64()
		}
		load := make([]float64, g.NumNodes())
		maxLoad := 0.0
		for _, id := range g.ActiveEdges() {
			e := g.Edge(id)
			load[e.From] += occ[id]
			load[e.To] += occ[id]
		}
		for _, l := range load {
			if l > maxLoad {
				maxLoad = l
			}
		}
		if maxLoad == 0 {
			return true
		}
		period := 1.0
		for i := range occ {
			occ[i] /= maxLoad // now every port load <= 1
		}
		tt, err := FromLoads(g, occ, period)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return tt.Validate(g, occ) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
