package tree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// MaxSteinerTerminals bounds the subset DP of MinSteinerArborescence
// (3^k states over terminal subsets).
const MaxSteinerTerminals = 16

// MinSteinerArborescence computes a minimum-total-weight arborescence
// rooted at root that spans every terminal, under the non-negative edge
// weights w. This is the exact directed Steiner tree (Dreyfus–Wagner
// style DP over terminal subsets), used as the pricing oracle of the
// tree-packing column generation and by the Steiner-based analysis of
// Section 6. Exponential in len(terminals); guarded by
// MaxSteinerTerminals.
func MinSteinerArborescence(g *graph.Graph, root graph.NodeID, terminals []graph.NodeID, w graph.WeightFunc) (*Tree, float64, error) {
	// Normalise the terminal list: drop the root and duplicates.
	var ts []graph.NodeID
	seen := make(map[graph.NodeID]bool)
	for _, t := range terminals {
		if t != root && !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}
	k := len(ts)
	if k == 0 {
		return &Tree{Root: root}, 0, nil
	}
	if k > MaxSteinerTerminals {
		return nil, 0, ErrTooLarge
	}
	if !g.ReachesAll(root, ts) {
		return nil, 0, errors.New("tree: some terminal unreachable from the root")
	}

	// All-pairs shortest paths under w (per-source Dijkstra).
	n := g.NumNodes()
	dist := make([][]float64, n)
	parent := make([][]int, n)
	for v := 0; v < n; v++ {
		if !g.Active(graph.NodeID(v)) {
			continue
		}
		dist[v], parent[v] = g.ShortestPaths(graph.NodeID(v), w)
	}

	full := (1 << k) - 1
	// dp[S][v]: min weight of an arborescence rooted at v spanning the
	// terminals of S. inner[S][v]: same, restricted to trees where v has
	// out-degree >= 2 or sits on a terminal split.
	dp := make([][]float64, full+1)
	walkTo := make([][]int32, full+1)
	splitOf := make([][]int32, full+1)
	for S := 1; S <= full; S++ {
		dp[S] = make([]float64, n)
		walkTo[S] = make([]int32, n)
		splitOf[S] = make([]int32, n)
	}
	for i, t := range ts {
		S := 1 << i
		for v := 0; v < n; v++ {
			if dist[v] == nil {
				dp[S][v] = math.Inf(1)
				continue
			}
			dp[S][v] = dist[v][t]
			walkTo[S][v] = int32(t)
			splitOf[S][v] = -1
		}
	}
	inner := make([]float64, n)
	innerSplit := make([]int32, n)
	for S := 1; S <= full; S++ {
		if S&(S-1) == 0 {
			continue // singleton handled above
		}
		for v := 0; v < n; v++ {
			inner[v] = math.Inf(1)
			innerSplit[v] = -1
		}
		for A := (S - 1) & S; A > 0; A = (A - 1) & S {
			B := S &^ A
			if A > B {
				continue // each split once
			}
			for v := 0; v < n; v++ {
				if c := dp[A][v] + dp[B][v]; c < inner[v] {
					inner[v] = c
					innerSplit[v] = int32(A)
				}
			}
		}
		for v := 0; v < n; v++ {
			best := math.Inf(1)
			bestU := int32(-1)
			if dist[v] != nil {
				for u := 0; u < n; u++ {
					if math.IsInf(inner[u], 1) || math.IsInf(dist[v][u], 1) {
						continue
					}
					if c := dist[v][u] + inner[u]; c < best {
						best = c
						bestU = int32(u)
					}
				}
			}
			dp[S][v] = best
			walkTo[S][v] = bestU
			if bestU >= 0 {
				splitOf[S][v] = innerSplit[bestU]
			} else {
				splitOf[S][v] = -1
			}
		}
	}
	value := dp[full][root]
	if math.IsInf(value, 1) {
		return nil, 0, errors.New("tree: no Steiner arborescence exists")
	}

	// Reconstruct the union of chosen paths, then extract a clean
	// arborescence from it (a BFS tree of the union costs no more, and
	// by optimality exactly the same).
	union := make(map[int]bool)
	emitPath := func(v, u graph.NodeID) {
		for _, id := range g.WalkBack(parent[v], u) {
			union[id] = true
		}
	}
	var emit func(S int, v graph.NodeID)
	emit = func(S int, v graph.NodeID) {
		if S&(S-1) == 0 {
			emitPath(v, graph.NodeID(walkTo[S][v]))
			return
		}
		u := graph.NodeID(walkTo[S][v])
		emitPath(v, u)
		A := int(splitOf[S][v])
		if A <= 0 || A&S != A {
			panic(fmt.Sprintf("tree: corrupt split table S=%b A=%d", S, A))
		}
		emit(A, u)
		emit(S&^A, u)
	}
	emit(full, root)

	t := bfsTreeOf(g, root, union)
	t.Prune(g, ts)
	if err := t.Validate(g, root, ts); err != nil {
		return nil, 0, fmt.Errorf("tree: steiner reconstruction: %w", err)
	}
	return t, t.Cost(g, w), nil
}

// bfsTreeOf extracts a BFS arborescence of the edge set union rooted at
// root. The adjacency lists follow edge-ID order, not map order, so the
// tree — which edge reaches a node the union reaches twice, and the
// order of Edges — is the same on every call.
func bfsTreeOf(g *graph.Graph, root graph.NodeID, union map[int]bool) *Tree {
	ids := make([]int, 0, len(union))
	for id := range union {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make(map[graph.NodeID][]int)
	for _, id := range ids {
		e := g.Edge(id)
		out[e.From] = append(out[e.From], id)
	}
	t := &Tree{Root: root}
	seen := map[graph.NodeID]bool{root: true}
	queue := []graph.NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range out[v] {
			to := g.Edge(id).To
			if seen[to] {
				continue
			}
			seen[to] = true
			t.Edges = append(t.Edges, id)
			queue = append(queue, to)
		}
	}
	return t
}
