// Command experiments regenerates the paper's Figure 11: the target
// density sweep over random Tiers-like platforms, reporting the mean
// period of every bound and heuristic relative to the scatter upper
// bound (panels a/c) and to the theoretical lower bound (panels b/d).
//
// The full paper-scale run (10 platforms, 6 densities, both sizes)
// takes a while; -platforms and -densities trade fidelity for time.
//
// The sweep grid runs on a worker pool (-workers, default GOMAXPROCS);
// per-task seeding keeps the output bit-identical for any worker
// count. -json persists the aggregated cells so a finished sweep can
// be re-rendered later with -from without re-solving the LPs.
//
// Usage:
//
//	experiments -size small -baseline scatter        # Figure 11(a)
//	experiments -size small -baseline lb             # Figure 11(b)
//	experiments -size big   -baseline scatter        # Figure 11(c)
//	experiments -size big   -baseline lb             # Figure 11(d)
//	experiments -size small -baseline both -csv out.csv
//	experiments -size small -platforms 3            # reduced sweep, both panels
//	experiments -size big -workers 8 -json sweep.json
//	experiments -from sweep.json -baseline lb        # re-render, no solve
//	experiments -size small -solvestats              # report LP solver work
//	experiments -size big -cpuprofile cpu.out -memprofile mem.out
//
// -solvestats reports the sweep's aggregate solver activity on stderr:
// bound evaluations and cache hits, LP solves split into warm starts
// and cold starts, simplex iterations (with the dual-simplex cleanup
// share), and cutting-plane rounds/cuts.
//
// -cpuprofile and -memprofile write pprof profiles of the sweep (the
// heap profile is taken after the sweep completes), so solver hot
// spots can be inspected on the full paper-scale workload rather than
// only on the reduced benchmark grids.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		size       = flag.String("size", "small", `platform preset: "small" or "big"`)
		platforms  = flag.Int("platforms", 10, "number of random platforms (the paper uses 10)")
		densities  = flag.String("densities", "", "comma-separated target densities (default: the paper's sweep)")
		seed       = flag.Int64("seed", 1, "base random seed")
		baseline   = flag.String("baseline", "both", `ratio baseline: "scatter", "lb" or "both"`)
		workers    = flag.Int("workers", 0, "concurrent sweep workers (default GOMAXPROCS)")
		jsonOut    = flag.String("json", "", "also write the aggregated cells as JSON to this file")
		fromJSON   = flag.String("from", "", "skip the sweep and re-render cells from this JSON file")
		csvOut     = flag.String("csv", "", "also write raw cells as CSV to this file")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		solveStats = flag.Bool("solvestats", false, "report aggregate LP-solver statistics (solves, iterations, warm starts, cache hits) after the sweep")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (taken after the sweep) to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	var cells []exp.Cell
	// label names the data's origin in the table headers; the persisted
	// JSON does not record the platform size, so re-rendered cells are
	// labelled by their source file rather than by the (ignored) -size
	// flag.
	label := *size + " platforms"
	if *fromJSON != "" {
		label = "from " + *fromJSON
		f, err := os.Open(*fromJSON)
		if err != nil {
			log.Fatal(err)
		}
		cells, err = exp.DecodeCells(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cfg := exp.Config{Size: *size, Platforms: *platforms, Seed: *seed, Workers: *workers}
		if !*quiet {
			cfg.Progress = os.Stderr
		}
		if *densities != "" {
			for _, part := range strings.Split(*densities, ",") {
				d, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
				if err != nil {
					log.Fatalf("bad density %q: %v", part, err)
				}
				cfg.Densities = append(cfg.Densities, d)
			}
		}
		results, err := exp.Sweep(cfg)
		if err != nil {
			log.Fatal(err)
		}
		cells = exp.Aggregate(results)
		if taskErr := exp.Errors(results); taskErr != nil {
			// Per-task failures leave the cells of the tasks that did
			// succeed; a partially failed sweep is still worth rendering
			// and persisting.
			if len(cells) == 0 {
				log.Fatal(taskErr)
			}
			log.Printf("warning: some sweep tasks failed, rendering the surviving cells: %v", taskErr)
		}
		if *solveStats {
			// Stats go to stderr; stdout carries the figure tables.
			fmt.Fprintf(os.Stderr, "solver: %v\n", exp.AggregateStats(results))
		}
	}

	switch *baseline {
	case "scatter":
		fmt.Printf("ratio of periods to the scatter bound (%s)\n\n%s", label, exp.Table(cells, "scatter"))
	case "lb":
		fmt.Printf("ratio of periods to the lower bound (%s)\n\n%s", label, exp.Table(cells, "lb"))
	case "both":
		fmt.Printf("ratio of periods to the scatter bound (%s)\n\n%s\n", label, exp.Table(cells, "scatter"))
		fmt.Printf("ratio of periods to the lower bound (%s)\n\n%s", label, exp.Table(cells, "lb"))
	default:
		log.Fatalf("unknown baseline %q", *baseline)
	}

	if *jsonOut != "" {
		if err := exp.WriteCellsFile(*jsonOut, cells); err != nil {
			log.Fatal(err)
		}
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			log.Fatal(err)
		}
		w := csv.NewWriter(f)
		if err := w.Write([]string{"density", "series", "vs_scatter", "vs_lb", "runs"}); err != nil {
			log.Fatal(err)
		}
		for _, c := range cells {
			rec := []string{
				strconv.FormatFloat(c.Density, 'g', 6, 64),
				c.Series,
				strconv.FormatFloat(c.VsScatter, 'g', 8, 64),
				strconv.FormatFloat(c.VsLB, 'g', 8, 64),
				strconv.Itoa(c.Runs),
			}
			if err := w.Write(rec); err != nil {
				log.Fatal(err)
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
