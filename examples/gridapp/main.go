// Gridapp: the paper's motivating scenario — a data-parallel
// application on a hierarchical grid platform multicasts a long series
// of same-size input blocks from the master to the subset of workers
// holding replicas. Pipelined steady-state throughput, not per-message
// makespan, decides how fast the whole computation is fed.
//
// The example generates a Tiers-like "small" platform, draws a worker
// set among the LAN hosts, compares all heuristics against the LP
// bounds, and reports the effective input bandwidth each schedule
// sustains.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"repro/internal/heur"
	"repro/internal/steady"
	"repro/internal/tiers"
)

func main() {
	log.SetFlags(0)

	platform, err := tiers.Generate(tiers.Small(42))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	workers := platform.RandomTargets(rng, 0.5)
	fmt.Printf("grid platform: %d nodes, %d links; master %s feeds %d replica workers\n\n",
		platform.G.NumNodes(), platform.G.NumEdges()/2, platform.G.Name(platform.Source), len(workers))

	problem, err := steady.NewProblem(platform.G, platform.Source, workers)
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

	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(w, "strategy\tperiod\tblocks/1000 time units\tvs lower bound\n")
	row := func(name string, period float64) {
		fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%.3f\n", name, period, 1000/period, period/lb.Period)
	}
	row("scatter (no sharing)", ub.Period)
	row("theoretical lower bound", lb.Period)
	for _, h := range heur.AllWith(ev) {
		res, err := h.Run(problem)
		if err != nil {
			log.Fatalf("%s: %v", h.Name, err)
		}
		row(h.Name, res.Period)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nthe LP heuristics sit close to the bound; MCPH is nearly as good with no LP solves")
}
