// Quickstart: build a small heterogeneous platform, compute the
// steady-state multicast bounds, run a heuristic, and verify the
// resulting tree in the one-port simulator.
package main

import (
	"fmt"
	"log"

	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/sim"
	"repro/internal/steady"
	"repro/internal/tree"
)

func main() {
	log.SetFlags(0)

	// A source, a fast relay and three clients; the direct client link
	// is slow, the relayed ones are fast.
	g := graph.New()
	src := g.AddNode("source")
	relay := g.AddNode("relay")
	clients := g.AddNodes("client", 3)
	g.AddEdge(src, relay, 1)        // 1 time unit per message
	g.AddEdge(src, clients[0], 2.5) // slow direct link
	for _, c := range clients {
		g.AddEdge(relay, c, 0.5)
	}

	problem, err := steady.NewProblem(g, src, clients)
	if err != nil {
		log.Fatal(err)
	}

	// The two LP bounds of the paper, both answered by one evaluator:
	// scatter (achievable) and the optimistic lower bound on the period.
	ev := steady.NewEvaluator()
	ub, err := ev.ScatterUB(problem)
	if err != nil {
		log.Fatal(err)
	}
	lb, err := ev.MulticastLB(problem)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scatter bound:  period %.3f (throughput %.3f)\n", ub.Period, ub.Throughput())
	fmt.Printf("lower bound:    period %.3f (throughput %.3f)\n", lb.Period, lb.Throughput())

	// MCPH builds a single pipelined multicast tree.
	res, err := heur.MCPH(problem)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MCPH tree:      period %.3f (throughput %.3f)\n", res.Period, res.Throughput())

	// Simulate 100 pipelined multicasts through that tree under the
	// one-port model and measure the sustained rate.
	report, err := sim.Run(g, src, clients, []tree.WeightedTree{
		{Tree: res.Tree, Rate: res.Throughput()},
	}, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated:      throughput %.3f over %d messages (%d transfers)\n",
		report.Throughput, report.Messages, report.Transfers)
}
