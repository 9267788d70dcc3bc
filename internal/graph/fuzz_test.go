package graph_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/steady"
)

// FuzzDecode feeds arbitrary text to Decode, which must never panic.
// Whenever it decodes a graph, encoding that graph and decoding the
// text again must give back the same text and the same platform
// fingerprint (the key of the serving layer's registry and caches).
func FuzzDecode(f *testing.F) {
	f.Add("edge a b NaN\n")
	f.Add("# platform\nlink a b 2\n\nedge b c 1\n")
	for _, text := range graph.SeedPlatforms() {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := graph.Decode(strings.NewReader(src))
		if err != nil {
			return
		}
		text := g.String()
		g2, err := graph.Decode(strings.NewReader(text))
		if err != nil {
			t.Fatalf("decoding the encoding of %q: %v\n%s", src, err, text)
		}
		if again := g2.String(); again != text {
			t.Fatalf("encoding changed on a round trip:\n%s\nvs\n%s", text, again)
		}
		if a, b := steady.Fingerprint(g), steady.Fingerprint(g2); a != b {
			t.Fatalf("fingerprint changed on a round trip: %#x vs %#x\n%s", a, b, text)
		}
	})
}

// FuzzDeltaUndo applies a fuzzer-built state-only delta (drop and
// restore node, disable and enable edge, set and scale cost, with
// out-of-range IDs and invalid costs among them) to a random platform.
// A delta that Apply rejects must leave the platform fingerprint and
// every adjacency list as they were; an accepted one, followed by its
// undo, must restore them exactly.
func FuzzDeltaUndo(f *testing.F) {
	f.Add([]byte{5, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{3, 2, 0, 0, 4, 4, 4, 5, 5, 5, 2, 9})
	f.Add([]byte{8, 20, 17, 33, 200, 91, 12, 7, 250, 65, 3, 3, 130})
	f.Add([]byte{2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	costs := []float64{0.5, 1, 2.5, 3, 1e-300, 1e300, 0, -1, math.NaN(), math.Inf(1)}
	factors := []float64{0.5, 2, 1, 1e308, 1e-308, 0, -2, math.NaN(), math.Inf(1), 0.75}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		pos := 0
		next := func() int {
			b := int(data[pos%len(data)])
			pos++
			return b
		}
		n := 2 + next()%8
		g := graph.New()
		ids := g.AddNodes("n", n)
		for m := next() % (3 * n); m >= 0; m-- {
			if u, v := ids[next()%n], ids[next()%n]; u != v {
				g.AddEdge(u, v, costs[next()%4])
			}
		}
		// Some masks set beforehand, so restore and enable ops find
		// something to undo.
		for k := next() % 3; k > 0; k-- {
			g.Deactivate(ids[next()%n])
			if g.NumEdges() > 0 {
				g.DisableEdge(next() % g.NumEdges())
			}
		}
		var delta graph.Delta
		for k := 1 + next()%8; k > 0; k-- {
			node := graph.NodeID(next()%(n+1)) - graph.NodeID(next()%2) // -1..n
			edge := next()%(g.NumEdges()+2) - 1                         // -1..NumEdges
			switch next() % 6 {
			case 0:
				delta = append(delta, graph.DropNodeOp(node))
			case 1:
				delta = append(delta, graph.RestoreNodeOp(node))
			case 2:
				delta = append(delta, graph.DisableEdgeOp(edge))
			case 3:
				delta = append(delta, graph.EnableEdgeOp(edge))
			case 4:
				delta = append(delta, graph.SetEdgeCostOp(edge, costs[next()%len(costs)]))
			case 5:
				delta = append(delta, graph.ScaleEdgeCostOp(edge, factors[next()%len(factors)]))
			}
		}

		want, wantAdj := steady.Fingerprint(g), adjacency(g)
		undo, err := delta.Apply(g)
		if err == nil {
			if _, err := undo.Apply(g); err != nil {
				t.Fatalf("undo %v of %v: %v", undo, delta, err)
			}
		}
		if got := steady.Fingerprint(g); got != want {
			t.Fatalf("delta %v (err %v): fingerprint %#x after undo or rejection, want %#x", delta, err, got, want)
		}
		if got := adjacency(g); !slices.Equal(got, wantAdj) {
			t.Fatalf("delta %v (err %v): adjacency %v after undo or rejection, want %v", delta, err, got, wantAdj)
		}
	})
}

// adjacency lists every node's active out-edges and then in-edges, in
// the order OutEdges and InEdges return them, -1 closing each list.
func adjacency(g *graph.Graph) []int {
	var out []int
	for v := 0; v < g.NumNodes(); v++ {
		out = append(g.OutEdges(graph.NodeID(v), out), -1)
		out = append(g.InEdges(graph.NodeID(v), out), -1)
	}
	return out
}
