package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The text format is line-oriented:
//
//	# comment
//	node <name>
//	edge <from> <to> <cost>
//	link <a> <b> <cost>       (two directed edges)
//
// Node lines may be omitted: edge endpoints are created on first use.

// Encode writes the graph (active part only) in the text format.
func (g *Graph) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for v, name := range g.names {
		if g.inactive[v] {
			continue
		}
		if _, err := fmt.Fprintf(bw, "node %s\n", name); err != nil {
			return err
		}
	}
	for id := range g.edges {
		if !g.EdgeActive(id) {
			continue
		}
		e := g.edges[id]
		if _, err := fmt.Fprintf(bw, "edge %s %s %g\n", g.names[e.From], g.names[e.To], e.Cost); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// String renders the graph in the text format.
func (g *Graph) String() string {
	var sb strings.Builder
	if err := g.Encode(&sb); err != nil {
		return fmt.Sprintf("graph<error: %v>", err)
	}
	return sb.String()
}

// Decode parses a graph from the text format.
func Decode(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	// No line cap but the input's own length: with bufio's default 64 KiB
	// cap, a graph read from lines just under it could encode to lines
	// over it (Encode spells a cost of 1e5 as 100000) and fail to decode.
	sc.Buffer(nil, math.MaxInt)
	getNode := func(name string) NodeID {
		if id, ok := g.NodeByName(name); ok {
			return id
		}
		return g.AddNode(name)
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: want 'node <name>'", lineNo)
			}
			if _, ok := g.NodeByName(fields[1]); ok {
				return nil, fmt.Errorf("graph: line %d: duplicate node %q", lineNo, fields[1])
			}
			g.AddNode(fields[1])
		case "edge", "link":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: want '%s <from> <to> <cost>'", lineNo, fields[0])
			}
			cost, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad cost %q: %v", lineNo, fields[3], err)
			}
			// ParseFloat accepts NaN and ±Inf; none is a usable cost.
			if !(cost > 0) || math.IsInf(cost, 1) {
				return nil, fmt.Errorf("graph: line %d: cost must be positive and finite, got %q", lineNo, fields[3])
			}
			from, to := getNode(fields[1]), getNode(fields[2])
			if from == to {
				return nil, fmt.Errorf("graph: line %d: self-loop on %q", lineNo, fields[1])
			}
			if fields[0] == "edge" {
				g.AddEdge(from, to, cost)
			} else {
				g.AddLink(from, to, cost)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	return g, sc.Err()
}

// DOT renders the active part of the graph in Graphviz DOT format.
// Nodes listed in highlight are drawn shaded (the paper shades target
// nodes in its figures).
func (g *Graph) DOT(name string, highlight []NodeID) string {
	hl := make(map[NodeID]bool, len(highlight))
	for _, v := range highlight {
		hl[v] = true
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	ids := g.ActiveNodes()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		if hl[v] {
			fmt.Fprintf(&sb, "  %q [style=filled, fillcolor=gray80];\n", g.names[v])
		} else {
			fmt.Fprintf(&sb, "  %q;\n", g.names[v])
		}
	}
	for id := range g.edges {
		if !g.EdgeActive(id) {
			continue
		}
		e := g.edges[id]
		fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", g.names[e.From], g.names[e.To], trimFloat(e.Cost))
	}
	sb.WriteString("}\n")
	return sb.String()
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 6, 64)
}
