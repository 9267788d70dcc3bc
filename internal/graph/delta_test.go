package graph

import (
	"math"
	"strings"
	"testing"
)

// deltaTestGraph builds a small two-cluster platform with a cross
// link: s -> a -> b and s -> c, plus a parallel (more expensive)
// s -> a edge so disable/enable exercises splice order.
func deltaTestGraph(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	g := New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(s, a, 1)   // 0
	g.AddEdge(a, b, 2)   // 1
	g.AddEdge(s, c, 3)   // 2
	g.AddEdge(s, a, 1.5) // 3: parallel to edge 0
	return g, []NodeID{s, a, b, c}
}

// graphState snapshots everything a state op can touch, for exact
// before/after comparison.
func graphState(g *Graph) string {
	var sb strings.Builder
	g.Encode(&sb)
	return sb.String()
}

func TestDeltaApplyAndUndoRoundTrip(t *testing.T) {
	g, ids := deltaTestGraph(t)
	before := graphState(g)
	beforeFP := fingerprintForTest(g)

	d := Delta{
		DropNodeOp(ids[3]),        // drop c
		DisableEdgeOp(1),          // a->b gone
		SetEdgeCostOp(0, 7),       // s->a repriced
		ScaleEdgeCostOp(3, 1.0/3), // parallel s->a degraded by an inexact factor
	}
	undo, err := d.Apply(g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if g.Active(ids[3]) || !g.EdgeDisabled(1) || g.Edge(0).Cost != 7 {
		t.Fatalf("delta not applied: active=%v disabled=%v cost=%v",
			g.Active(ids[3]), g.EdgeDisabled(1), g.Edge(0).Cost)
	}
	if _, err := undo.Apply(g); err != nil {
		t.Fatalf("undo Apply: %v", err)
	}
	if got := graphState(g); got != before {
		t.Fatalf("undo did not restore graph:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if fp := fingerprintForTest(g); fp != beforeFP {
		t.Fatalf("undo did not restore fingerprint: %#x != %#x", fp, beforeFP)
	}
}

// fingerprintForTest is a local content hash over the fields deltas
// touch (activity, disable mask, costs, sizes); the real serving
// fingerprint lives in steady and cannot be imported from here.
func fingerprintForTest(g *Graph) uint64 {
	var h uint64 = 1469598103934665603
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(g.NumNodes()))
	for v := 0; v < g.NumNodes(); v++ {
		if g.Active(NodeID(v)) {
			mix(uint64(v) + 1)
		}
	}
	mix(uint64(g.NumEdges()))
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(id)
		mix(uint64(e.From)<<32 | uint64(e.To))
		mix(math.Float64bits(e.Cost))
		if g.EdgeDisabled(id) {
			mix(uint64(id) + 7)
		}
	}
	return h
}

func TestDeltaAtomicRollbackOnError(t *testing.T) {
	g, ids := deltaTestGraph(t)
	before := graphState(g)

	d := Delta{
		DisableEdgeOp(0),
		SetEdgeCostOp(1, 9),
		DropNodeOp(ids[1]),
		SetEdgeCostOp(99, 1), // out of range: whole batch must roll back
	}
	if _, err := d.Apply(g); err == nil {
		t.Fatal("Apply succeeded with out-of-range edge")
	}
	if got := graphState(g); got != before {
		t.Fatalf("failed Apply left mutations behind:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if g.EdgeDisabled(0) || g.Edge(1).Cost != 2 || !g.Active(ids[1]) {
		t.Fatal("rollback incomplete")
	}
}

func TestDeltaUndoUnwindsInReverseOrder(t *testing.T) {
	g, _ := deltaTestGraph(t)
	// Two sets on the same edge: undo must restore the original cost 1,
	// not the intermediate 5.
	d := Delta{SetEdgeCostOp(0, 5), SetEdgeCostOp(0, 11)}
	undo, err := d.Apply(g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if g.Edge(0).Cost != 11 {
		t.Fatalf("cost = %v, want 11", g.Edge(0).Cost)
	}
	if _, err := undo.Apply(g); err != nil {
		t.Fatalf("undo: %v", err)
	}
	if g.Edge(0).Cost != 1 {
		t.Fatalf("undo restored cost %v, want original 1", g.Edge(0).Cost)
	}
}

func TestDeltaNoOpsProduceEmptyUndo(t *testing.T) {
	g, ids := deltaTestGraph(t)
	g.Deactivate(ids[3])
	g.DisableEdge(1)

	d := Delta{
		DropNodeOp(ids[3]),      // already inactive
		DisableEdgeOp(1),        // already disabled
		SetEdgeCostOp(0, 1),     // already 1
		ScaleEdgeCostOp(0, 1.0), // identity factor
	}
	undo, err := d.Apply(g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(undo) != 0 {
		t.Fatalf("satisfied ops produced undo %v", undo)
	}
}

func TestDeltaStructuralOps(t *testing.T) {
	g, ids := deltaTestGraph(t)
	n, m := g.NumNodes(), g.NumEdges()

	// Later ops reference the node/edge created earlier in the batch.
	d := Delta{
		AddNodeOp("d"),
		AddEdgeOp(ids[0], NodeID(n), 4),
		SetEdgeCostOp(m, 6),
	}
	undo, err := d.Apply(g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if g.NumNodes() != n+1 || g.NumEdges() != m+1 {
		t.Fatalf("sizes after add: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Edge(m).Cost != 6 {
		t.Fatalf("new edge cost %v, want 6", g.Edge(m).Cost)
	}
	if _, err := undo.Apply(g); err != nil {
		t.Fatalf("undo: %v", err)
	}
	// Structural undo is logical: sizes keep the growth, but the added
	// parts are dormant.
	if g.NumNodes() != n+1 || g.NumEdges() != m+1 {
		t.Fatal("undo physically removed structure")
	}
	if g.Active(NodeID(n)) || !g.EdgeDisabled(m) {
		t.Fatal("undo did not dormant the added node/edge")
	}
}

// TestDeltaFailedStructuralApplyLeavesGraphUntouched: a delta that
// adds a node and an edge and then fails on a later op must leave the
// graph exactly as before — no dormant node or edge — so the same
// delta, with its bad op removed, applies afterwards.
func TestDeltaFailedStructuralApplyLeavesGraphUntouched(t *testing.T) {
	g := New()
	ids := g.AddNodes("n", 3)
	a := ids[0]
	before, beforeFP := graphState(g), fingerprintForTest(g)
	d := Delta{AddNodeOp("x"), AddEdgeOp(a, 2, 1), DisableEdgeOp(99)}
	if _, err := d.Apply(g); err == nil {
		t.Fatal("Apply of a delta with an out-of-range edge succeeded")
	}
	if g.NumNodes() != 3 || g.NumEdges() != 0 || fingerprintForTest(g) != beforeFP || graphState(g) != before {
		t.Fatalf("failed delta left %d nodes and %d edges (want 3 and 0), fingerprint changed: %v",
			g.NumNodes(), g.NumEdges(), fingerprintForTest(g) != beforeFP)
	}
	if _, err := d[:2].Apply(g); err != nil {
		t.Fatalf("retry without the bad op: %v", err)
	}
	if x, ok := g.NodeByName("x"); !ok || g.NumNodes() != 4 || g.NumEdges() != 1 || !g.Active(x) || !g.EdgeActive(0) {
		t.Fatalf("retry applied to %d nodes and %d edges, want 4 and 1", g.NumNodes(), g.NumEdges())
	}
}

func TestDeltaValidateDoesNotMutate(t *testing.T) {
	g, _ := deltaTestGraph(t)
	before := graphState(g)
	good := Delta{DisableEdgeOp(0), AddNodeOp("x")}
	if err := good.Validate(g); err != nil {
		t.Fatalf("Validate(good): %v", err)
	}
	bad := Delta{DisableEdgeOp(0), EnableEdgeOp(-1)}
	if err := bad.Validate(g); err == nil {
		t.Fatal("Validate(bad) = nil")
	}
	if graphState(g) != before || g.NumNodes() != 4 {
		t.Fatal("Validate mutated the graph")
	}
}

func TestDeltaValidationErrors(t *testing.T) {
	g, ids := deltaTestGraph(t)
	cases := []struct {
		name string
		op   DeltaOp
	}{
		{"node out of range", DropNodeOp(99)},
		{"negative node", RestoreNodeOp(-1)},
		{"empty name", AddNodeOp("")},
		{"duplicate name", AddNodeOp("a")},
		{"self loop", AddEdgeOp(ids[0], ids[0], 1)},
		{"edge cost zero", AddEdgeOp(ids[0], ids[2], 0)},
		{"edge out of range", DisableEdgeOp(4)},
		{"set cost negative", SetEdgeCostOp(0, -2)},
		{"set cost nan", SetEdgeCostOp(0, math.NaN())},
		{"scale by zero", ScaleEdgeCostOp(0, 0)},
		{"scale overflow", ScaleEdgeCostOp(2, math.MaxFloat64)},
		{"unknown kind", DeltaOp{Kind: DeltaKind(99)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := graphState(g)
			if _, err := (Delta{tc.op}).Apply(g); err == nil {
				t.Fatalf("Apply(%s) = nil error", tc.op)
			}
			if graphState(g) != before {
				t.Fatal("failed op mutated graph")
			}
		})
	}
}
