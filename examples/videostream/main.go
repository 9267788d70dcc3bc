// Videostream: replicate a live stream to a subset of edge hosts.
//
// A content origin pushes a continuous sequence of fixed-size video
// segments to the region caches that currently serve viewers — a
// pipelined multicast to a strict subset of the platform. The example
// compares the naive strategies an operator might try (unicast to every
// cache, flooding everyone) against the paper's heuristics, and turns
// the best tree into an explicit conflict-free periodic transmission
// timetable.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/sched"
	"repro/internal/steady"
	"repro/internal/tree"
)

func main() {
	log.SetFlags(0)

	// Origin, two regional hubs, six edge caches. Cross-region links
	// are slow; intra-region fan-out is fast. Three caches currently
	// have viewers.
	g := graph.New()
	origin := g.AddNode("origin")
	hubs := []graph.NodeID{g.AddNode("hub-eu"), g.AddNode("hub-us")}
	var caches []graph.NodeID
	for i := 0; i < 6; i++ {
		caches = append(caches, g.AddNode(fmt.Sprintf("cache%d", i)))
	}
	g.AddEdge(origin, hubs[0], 1)
	g.AddEdge(origin, hubs[1], 2)
	g.AddLink(hubs[0], hubs[1], 3)
	for i, c := range caches {
		hub := hubs[i/3]
		g.AddLink(hub, c, 0.5)
		if i%3 == 0 {
			g.AddEdge(origin, c, 4) // slow direct backup path
		}
	}
	active := []graph.NodeID{caches[0], caches[2], caches[4]} // viewers here

	problem, err := steady.NewProblem(g, origin, active)
	if err != nil {
		log.Fatal(err)
	}

	// One evaluator answers the bounds and runs the LP heuristics, so
	// they share its cached bounds, cut pools and LP workspace.
	ev := steady.NewEvaluator()
	ub, err := ev.ScatterUB(problem)
	if err != nil {
		log.Fatal(err)
	}
	lb, err := ev.MulticastLB(problem)
	if err != nil {
		log.Fatal(err)
	}
	bc, err := ev.BroadcastEB(g, origin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segments per 10 time units, origin -> %d active caches:\n", len(active))
	fmt.Printf("  %-28s %6.2f\n", "unicast to each cache (scatter)", 10/ub.Period)
	fmt.Printf("  %-28s %6.2f\n", "flood everyone (broadcast)", 10/bc.Period)

	best := ""
	bestPeriod := bc.Period
	for _, h := range heur.AllWith(ev) {
		res, err := h.Run(problem)
		if err != nil {
			log.Fatalf("%s: %v", h.Name, err)
		}
		fmt.Printf("  %-28s %6.2f\n", h.Name, 10/res.Period)
		if res.Period < bestPeriod {
			best, bestPeriod = h.Name, res.Period
		}
	}
	fmt.Printf("  %-28s %6.2f (not always reachable)\n", "theoretical bound", 10/lb.Period)
	fmt.Printf("\nbest heuristic: %s (period %.2f)\n", best, bestPeriod)

	// Turn the MCPH tree into an explicit periodic timetable: which
	// link transmits when, with no port ever double-booked.
	res, err := heur.MCPH(problem)
	if err != nil {
		log.Fatal(err)
	}
	tt, err := sched.FromTrees(g, []tree.WeightedTree{
		{Tree: res.Tree, Rate: res.Throughput()},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMCPH periodic timetable (period %.2f):\n", tt.Period)
	slots := tt.Slots
	sort.Slice(slots, func(i, j int) bool { return slots[i].Start < slots[j].Start })
	for _, s := range slots {
		e := g.Edge(s.EdgeID)
		fmt.Printf("  t=%.3f..%.3f  %s -> %s\n", s.Start, s.Start+s.Length, g.Name(e.From), g.Name(e.To))
	}
}
