package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func diamond(t *testing.T) (*Graph, NodeID, NodeID, NodeID, NodeID) {
	t.Helper()
	return newDiamond()
}

func newDiamond() (*Graph, NodeID, NodeID, NodeID, NodeID) {
	g := New()
	s := g.AddNode("S")
	a := g.AddNode("A")
	b := g.AddNode("B")
	d := g.AddNode("D")
	g.AddEdge(s, a, 1)
	g.AddEdge(s, b, 2)
	g.AddEdge(a, d, 3)
	g.AddEdge(b, d, 1)
	return g, s, a, b, d
}

func TestAddAndQuery(t *testing.T) {
	g, s, a, b, d := diamond(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Name(s) != "S" {
		t.Errorf("Name(s) = %q", g.Name(s))
	}
	if id, ok := g.NodeByName("B"); !ok || id != b {
		t.Errorf("NodeByName(B) = %v, %v", id, ok)
	}
	if _, ok := g.NodeByName("missing"); ok {
		t.Error("NodeByName(missing) found something")
	}
	out := g.OutEdges(s, nil)
	if len(out) != 2 {
		t.Fatalf("OutEdges(S) = %v", out)
	}
	in := g.InEdges(d, nil)
	if len(in) != 2 {
		t.Fatalf("InEdges(D) = %v", in)
	}
	e, ok := g.FindEdge(a, d)
	if !ok || e.Cost != 3 {
		t.Errorf("FindEdge(A,D) = %+v, %v", e, ok)
	}
	if _, ok := g.FindEdge(d, a); ok {
		t.Error("FindEdge(D,A) should not exist")
	}
	_ = b
}

func TestAddLink(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	ab, ba := g.AddLink(a, b, 2.5)
	if g.Edge(ab).From != a || g.Edge(ab).To != b || g.Edge(ab).Cost != 2.5 {
		t.Errorf("ab edge wrong: %+v", g.Edge(ab))
	}
	if g.Edge(ba).From != b || g.Edge(ba).To != a {
		t.Errorf("ba edge wrong: %+v", g.Edge(ba))
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	mustPanic("dup name", func() { g.AddNode("a") })
	mustPanic("empty name", func() { g.AddNode("") })
	mustPanic("self loop", func() { g.AddEdge(a, a, 1) })
	mustPanic("zero cost", func() { g.AddEdge(a, b, 0) })
	mustPanic("neg cost", func() { g.AddEdge(a, b, -1) })
	mustPanic("inf cost", func() { g.AddEdge(a, b, math.Inf(1)) })
	mustPanic("bad node", func() { g.Name(NodeID(99)) })
	mustPanic("bad edge", func() { g.Edge(99) })
}

func TestActivityMask(t *testing.T) {
	g, s, a, b, d := diamond(t)
	g.Deactivate(a)
	if g.Active(a) {
		t.Fatal("A still active")
	}
	if g.NumActive() != 3 {
		t.Fatalf("NumActive = %d", g.NumActive())
	}
	if out := g.OutEdges(s, nil); len(out) != 1 || g.Edge(out[0]).To != b {
		t.Fatalf("OutEdges(S) after deactivate = %v", out)
	}
	if in := g.InEdges(d, nil); len(in) != 1 {
		t.Fatalf("InEdges(D) after deactivate = %v", in)
	}
	if got := len(g.ActiveEdges()); got != 2 {
		t.Fatalf("ActiveEdges = %d, want 2", got)
	}
	g.Activate(a)
	if got := len(g.ActiveEdges()); got != 4 {
		t.Fatalf("ActiveEdges after reactivate = %d", got)
	}
	g.Restrict([]NodeID{s, d})
	if g.NumActive() != 2 || len(g.ActiveEdges()) != 0 {
		t.Fatalf("Restrict failed: %d nodes %d edges", g.NumActive(), len(g.ActiveEdges()))
	}
	g.ActivateAll()
	if g.NumActive() != 4 {
		t.Fatalf("ActivateAll: %d", g.NumActive())
	}
}

func TestCloneIndependence(t *testing.T) {
	g, s, a, _, _ := diamond(t)
	c := g.Clone()
	c.Deactivate(a)
	if !g.Active(a) {
		t.Fatal("clone deactivation leaked into original")
	}
	c.AddNode("extra")
	if g.NumNodes() != 4 {
		t.Fatal("clone node add leaked into original")
	}
	if _, ok := c.NodeByName("S"); !ok {
		t.Fatal("clone lost byName index")
	}
	if out := c.OutEdges(s, nil); len(out) != 1 {
		t.Fatalf("clone OutEdges(S) = %v", out)
	}
}

func TestReachable(t *testing.T) {
	g, s, a, b, d := diamond(t)
	seen := g.Reachable(s)
	for _, v := range []NodeID{s, a, b, d} {
		if !seen[v] {
			t.Errorf("node %d not reachable", v)
		}
	}
	if !g.ReachesAll(s, []NodeID{a, b, d}) {
		t.Error("ReachesAll false")
	}
	g.Deactivate(a)
	g.Deactivate(b)
	if g.ReachesAll(s, []NodeID{d}) {
		t.Error("D should be cut off")
	}
	seen = g.Reachable(d)
	if seen[s] {
		t.Error("S should not be reachable from D")
	}
}

func TestShortestPaths(t *testing.T) {
	g, s, a, b, d := diamond(t)
	dist, parent := g.ShortestPaths(s, CostWeight)
	if dist[d] != 3 { // S->B->D = 2+1 beats S->A->D = 4
		t.Fatalf("dist[D] = %v, want 3", dist[d])
	}
	path := g.WalkBack(parent, d)
	if len(path) != 2 || g.Edge(path[0]).To != b || g.Edge(path[1]).To != d {
		t.Fatalf("path = %v", path)
	}
	if dist[a] != 1 || dist[b] != 2 || dist[s] != 0 {
		t.Fatalf("dist = %v", dist)
	}
}

func TestBottleneckPaths(t *testing.T) {
	g, s, _, _, d := diamond(t)
	dist, parent := g.BottleneckPaths(s, CostWeight)
	// S->A->D has max edge 3; S->B->D has max edge 2.
	if dist[d] != 2 {
		t.Fatalf("bottleneck dist[D] = %v, want 2", dist[d])
	}
	path := g.WalkBack(parent, d)
	if len(path) != 2 {
		t.Fatalf("path = %v", path)
	}
}

func TestMultiSourceBottleneck(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddEdge(a, c, 5)
	g.AddEdge(b, c, 1)
	g.AddEdge(c, d, 2)
	dist, parent := g.MultiSourceBottleneck([]NodeID{a, b}, CostWeight)
	if dist[c] != 1 {
		t.Fatalf("dist[c] = %v, want 1 (via b)", dist[c])
	}
	if dist[d] != 2 {
		t.Fatalf("dist[d] = %v, want 2", dist[d])
	}
	if g.Edge(parent[c]).From != b {
		t.Fatalf("parent of c should be edge from b")
	}
	if dist[a] != 0 || dist[b] != 0 {
		t.Fatalf("source dists = %v %v", dist[a], dist[b])
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	dist, parent := g.ShortestPaths(a, CostWeight)
	if !math.IsInf(dist[b], 1) {
		t.Fatalf("dist[b] = %v", dist[b])
	}
	if p := g.WalkBack(parent, b); p != nil {
		t.Fatalf("path to unreachable = %v", p)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g, _, _, _, _ := diamond(t)
	text := g.String()
	g2, err := Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d edges",
			g2.NumNodes(), g.NumNodes(), g2.NumEdges(), g.NumEdges())
	}
	if g2.String() != text {
		t.Fatalf("round trip text mismatch:\n%s\nvs\n%s", g2.String(), text)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"node",
		"node a\nnode a",
		"edge a b",
		"edge a b zero",
		"edge a b -1",
		"edge a a 1",
		"frobnicate a b 1",
	}
	for _, src := range cases {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("Decode(%q): expected error", src)
		}
	}
}

// TestDecodeLongLinesRoundTrip: a graph decoded from a line of just
// under 64 KiB re-decodes from its encoding, whose edge line is longer
// than the input's.
func TestDecodeLongLinesRoundTrip(t *testing.T) {
	a, b := strings.Repeat("a", 32762), strings.Repeat("b", 32763)
	g, err := Decode(strings.NewReader("edge " + a + " " + b + " 1e5\n"))
	if err != nil {
		t.Fatal(err)
	}
	text := g.String()
	g2, err := Decode(strings.NewReader(text))
	if err != nil {
		t.Fatalf("re-decoding %d bytes: %v", len(text), err)
	}
	if g2.String() != text {
		t.Fatal("round trip changed the text")
	}
}

// TestDecodeRejectsNonFiniteCosts pins that costs ParseFloat accepts
// but AddEdge cannot take come back as Decode's line-numbered error,
// not as a panic.
func TestDecodeRejectsNonFiniteCosts(t *testing.T) {
	for _, cost := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e400"} {
		for _, dir := range []string{"edge", "link"} {
			src := "node a\n" + dir + " a b " + cost + "\n"
			_, err := Decode(strings.NewReader(src))
			if err == nil || !strings.Contains(err.Error(), "line 2") {
				t.Errorf("Decode(%q) = %v, want a line 2 error", src, err)
			}
		}
	}
}

func TestDecodeLinkAndComments(t *testing.T) {
	src := "# platform\nlink a b 2\n\nedge b c 1\n"
	g, err := Decode(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("%d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestDOT(t *testing.T) {
	g, s, _, _, d := diamond(t)
	dot := g.DOT("test", []NodeID{d})
	for _, want := range []string{"digraph", `"S" -> "A"`, "gray80"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	_ = s
}

// Property: on random DAG-ish graphs, Dijkstra distances satisfy the
// triangle inequality over every active edge, and bottleneck distances
// are no larger than additive ones.
func TestShortestPathProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + rng.Intn(10)
		ids := g.AddNodes("n", n)
		for i := 0; i < 3*n; i++ {
			a := ids[rng.Intn(n)]
			b := ids[rng.Intn(n)]
			if a != b {
				g.AddEdge(a, b, 0.1+rng.Float64())
			}
		}
		src := ids[0]
		dist, _ := g.ShortestPaths(src, CostWeight)
		bott, _ := g.BottleneckPaths(src, CostWeight)
		for _, id := range g.ActiveEdges() {
			e := g.Edge(id)
			if dist[e.To] > dist[e.From]+e.Cost+1e-12 {
				return false
			}
			if bott[e.To] > math.Max(bott[e.From], e.Cost)+1e-12 {
				return false
			}
		}
		for v := range dist {
			if bott[v] > dist[v]+1e-12 { // max <= sum for positive weights
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeMask covers DisableEdge/EnableEdge: a disabled edge vanishes
// from every query while its endpoints stay active, exactly like a
// single link failure.
func TestEdgeMask(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab := g.AddEdge(a, b, 1)
	ab2 := g.AddEdge(a, b, 3) // parallel, slower
	g.AddEdge(b, c, 1)

	g.DisableEdge(ab)
	if g.EdgeActive(ab) || !g.EdgeDisabled(ab) {
		t.Error("disabled edge still active")
	}
	if !g.Active(a) || !g.Active(b) {
		t.Error("disabling an edge deactivated a node")
	}
	if got := g.OutEdges(a, nil); len(got) != 1 || got[0] != ab2 {
		t.Errorf("OutEdges(a) = %v, want [%d]", got, ab2)
	}
	if got := g.InEdges(b, nil); len(got) != 1 || got[0] != ab2 {
		t.Errorf("InEdges(b) = %v, want [%d]", got, ab2)
	}
	if e, ok := g.FindEdge(a, b); !ok || e.ID != ab2 {
		t.Errorf("FindEdge(a,b) = %+v ok=%v, want the parallel edge", e, ok)
	}
	if got := g.ActiveEdges(); len(got) != 2 {
		t.Errorf("ActiveEdges = %v, want 2 edges", got)
	}

	// The mask survives Clone, independently of the original.
	cl := g.Clone()
	if cl.EdgeActive(ab) {
		t.Error("clone lost the edge mask")
	}
	cl.EnableEdge(ab)
	if !cl.EdgeActive(ab) || g.EdgeActive(ab) {
		t.Error("clone edge mask is not independent")
	}

	g.EnableEdge(ab)
	if !g.EdgeActive(ab) {
		t.Error("EnableEdge did not restore the edge")
	}
	// EnableEdge on a never-disabled graph is a no-op.
	g2 := New()
	x := g2.AddNode("x")
	y := g2.AddNode("y")
	xy := g2.AddEdge(x, y, 1)
	g2.EnableEdge(xy)
	if !g2.EdgeActive(xy) {
		t.Error("EnableEdge broke an untouched edge")
	}
}

// TestEdgeMaskReachability: disabling a bridge disconnects exactly the
// nodes behind it.
func TestEdgeMaskReachability(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b, 1)
	bc := g.AddEdge(b, c, 1)
	if !g.ReachesAll(a, []NodeID{c}) {
		t.Fatal("c unreachable before disable")
	}
	g.DisableEdge(bc)
	if g.ReachesAll(a, []NodeID{c}) {
		t.Error("c reachable across a disabled bridge")
	}
	if !g.ReachesAll(a, []NodeID{b}) {
		t.Error("b lost with the wrong edge")
	}
}

// TestSetEdgeCost checks cost rescaling and its validation.
func TestSetEdgeCost(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	id := g.AddEdge(a, b, 2)
	g.SetEdgeCost(id, 5)
	if got := g.Edge(id).Cost; got != 5 {
		t.Errorf("cost = %v, want 5", got)
	}
	if m := g.MaxCost(); m != 5 {
		t.Errorf("MaxCost = %v, want 5", m)
	}
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetEdgeCost(%v) did not panic", bad)
				}
			}()
			g.SetEdgeCost(id, bad)
		}()
	}
}
