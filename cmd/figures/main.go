// Command figures regenerates the paper's worked examples and
// theoretical artefacts:
//
//	figures -fig 1      Section 3 example: single tree vs optimal packing
//	figures -fig 2      Theorem 1 set-cover reduction on the Figure 2 instance
//	figures -fig 3      Theorem 5 parallel-prefix reduction
//	figures -fig 4      Figure 4: neither LP bound is tight
//	figures -fig 5      Figure 5: the |Ptarget| gap between the bounds
//	figures -fig 12     Figure 12 case study: MCPH vs Multisource MC on a Tiers platform
//	figures -fig table  Section 4 complexity table, as measured runtimes
//
// -fig also takes a comma-separated list (figures -fig 1,4,5) and runs
// the figures in that order. The Figure 11 density sweep is
// cmd/experiments (experiments -platforms 3 is the reduced sweep).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/platforms"
	"repro/internal/prefix"
	"repro/internal/setcover"
	"repro/internal/steady"
	"repro/internal/tiers"
	"repro/internal/tree"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	figs := flag.String("fig", "1", "figures to regenerate, comma-separated: 1, 2, 3, 4, 5, 12 or table")
	seed := flag.Int64("seed", 1, "random seed (figure 12)")
	flag.Parse()

	for _, fig := range strings.Split(*figs, ",") {
		var err error
		switch strings.TrimSpace(fig) {
		case "1":
			err = figure1()
		case "2":
			err = figure2()
		case "3":
			err = figure3()
		case "4":
			err = figure4()
		case "5":
			err = figure5()
		case "12":
			err = figure12(*seed)
		case "table":
			err = complexityTable()
		default:
			log.Fatalf("unknown figure %q", fig)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
}

func figure1() error {
	pl := platforms.Figure1()
	p := pl.Problem()
	fmt.Println("Figure 1 - the Section 3 worked example (targets P7..P13)")
	lb, err := steady.NewEvaluator().MulticastLB(p)
	if err != nil {
		return err
	}
	_, single, err := tree.BestSingleTree(pl.G, pl.Source, pl.Targets)
	if err != nil {
		return err
	}
	pk, err := tree.PackOptimal(pl.G, pl.Source, pl.Targets)
	if err != nil {
		return err
	}
	fmt.Printf("  upper bound from P7's in-edge:    throughput 1\n")
	fmt.Printf("  Multicast-LB:                     throughput %.4f\n", lb.Throughput())
	fmt.Printf("  best single multicast tree:       throughput %.4f  (< 1: one tree is not enough)\n", 1/single)
	fmt.Printf("  optimal weighted tree packing:    throughput %.4f  using %d trees:\n", pk.Throughput, len(pk.Trees))
	for i, wt := range pk.Trees {
		fmt.Printf("    tree %d at rate %.3f: %s\n", i+1, wt.Rate, describeTree(pl.G, wt.Tree))
	}
	return nil
}

func figure2() error {
	ins := setcover.PaperExample()
	fmt.Println("Figure 2 - COMPACT-MULTICAST reduction of the example set-cover instance")
	cover, err := setcover.Exact(ins)
	if err != nil {
		return err
	}
	fmt.Printf("  minimum cover: %v (size %d)\n", coverNames(cover), len(cover))
	for _, B := range []int{len(cover) - 1, len(cover), len(cover) + 1} {
		if B < 1 || B > len(ins.Subsets) {
			continue
		}
		r, err := setcover.Reduce(ins, B)
		if err != nil {
			return err
		}
		_, period, err := tree.BestSingleTree(r.G, r.Source, r.Targets())
		if err != nil {
			return err
		}
		verdict := "no"
		if period <= 1+1e-9 {
			verdict = "yes"
		}
		fmt.Printf("  B=%d: best single tree period %.4f -> throughput 1 reachable: %s\n", B, period, verdict)
	}
	return nil
}

func figure3() error {
	ins := setcover.PaperExample()
	cover, err := setcover.Exact(ins)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3 - COMPACT-PREFIX reduction (Theorem 5)")
	for _, B := range []int{len(cover), len(cover) - 1} {
		if B < 1 {
			continue
		}
		r, err := prefix.Reduce(ins, B)
		if err != nil {
			return err
		}
		s, err := r.CoverScheme(cover)
		if err != nil {
			return err
		}
		fmt.Printf("  B=%d: cover scheme period %.4f (%d steps)\n", B, s.Period(), len(s.Steps))
	}
	fmt.Println("  period 1 is reachable exactly when a cover of size <= B exists")
	return nil
}

func figure4() error {
	pl := platforms.Figure4()
	p := pl.Problem()
	fmt.Println("Figure 4 - neither bound is tight")
	ev := steady.NewEvaluator()
	ub, err := ev.ScatterUB(p)
	if err != nil {
		return err
	}
	lb, err := ev.MulticastLB(p)
	if err != nil {
		return err
	}
	pk, err := tree.PackOptimal(pl.G, pl.Source, pl.Targets)
	if err != nil {
		return err
	}
	fmt.Printf("  scatter bound (Multicast-UB):  throughput %.4f\n", ub.Throughput())
	fmt.Printf("  true optimum (tree packing):   throughput %.4f\n", pk.Throughput)
	fmt.Printf("  optimistic bound (Multicast-LB): throughput %.4f\n", lb.Throughput())
	return nil
}

func figure5() error {
	pl := platforms.Figure5()
	p := pl.Problem()
	fmt.Println("Figure 5 - the gap between the bounds reaches |Ptarget|")
	ev := steady.NewEvaluator()
	ub, err := ev.ScatterUB(p)
	if err != nil {
		return err
	}
	lb, err := ev.MulticastLB(p)
	if err != nil {
		return err
	}
	fmt.Printf("  scatter period %.4f vs optimistic period %.4f: gap %.1fx = |Ptarget| = %d\n",
		ub.Period, lb.Period, ub.Period/lb.Period, len(pl.Targets))
	return nil
}

func figure12(seed int64) error {
	pl, err := tiers.Generate(tiers.Small(seed))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	targets := pl.RandomTargets(rng, 0.4)
	p, err := steady.NewProblem(pl.G, pl.Source, targets)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 12 - case study on a Tiers platform (seed %d, %d targets)\n", seed, len(targets))
	mcph, err := heur.MCPH(p)
	if err != nil {
		return err
	}
	ms, err := heur.AugmentedSources(steady.NewEvaluator(), p)
	if err != nil {
		return err
	}
	fmt.Printf("  MCPH:           period %.1f (single tree, %d edges)\n", mcph.Period, len(mcph.Tree.Edges))
	var names []string
	for _, s := range ms.Sources {
		names = append(names, pl.G.Name(s))
	}
	fmt.Printf("  Multisource MC: period %.1f (secondary sources: %v)\n", ms.Period, names)
	fmt.Printf("  ratio: %.3f (the paper's instance reports 789/1000)\n", ms.Period/mcph.Period)
	return nil
}

func complexityTable() error {
	fmt.Println("Section 4 complexity table, as measured runtime scaling")
	fmt.Println("  broadcast (polynomial, Broadcast-EB) vs multicast optimum (exponential, tree packing)")
	for _, n := range []int{4, 6, 8, 10, 12} {
		g := graph.New()
		s := g.AddNode("S")
		prev := s
		var targets []graph.NodeID
		for i := 0; i < n; i++ {
			v := g.AddNode(fmt.Sprintf("n%d", i))
			g.AddLink(prev, v, 1)
			g.AddEdge(s, v, float64(i+2))
			targets = append(targets, v)
			prev = v
		}
		t0 := time.Now()
		if _, err := steady.NewEvaluator().BroadcastEB(g, s); err != nil {
			return err
		}
		dBC := time.Since(t0)
		t0 = time.Now()
		if _, err := tree.PackOptimal(g, s, targets); err != nil {
			return err
		}
		dOPT := time.Since(t0)
		fmt.Printf("  |targets|=%2d: Broadcast-EB %10v   exact multicast %10v\n", n, dBC.Round(time.Microsecond), dOPT.Round(time.Microsecond))
	}
	return nil
}

func describeTree(g *graph.Graph, t *tree.Tree) string {
	out := ""
	for i, id := range t.Edges {
		if i > 0 {
			out += " "
		}
		e := g.Edge(id)
		out += g.Name(e.From) + ">" + g.Name(e.To)
	}
	return out
}

func coverNames(pick []int) []string {
	var names []string
	for _, i := range pick {
		names = append(names, fmt.Sprintf("C%d", i+1))
	}
	return names
}
