// Package exp is the simulation harness behind the paper's Figure 11:
// it sweeps multicast target density over randomly generated Tiers-like
// platforms, runs the LP bounds and all heuristics, and aggregates the
// period ratios that the paper plots — each heuristic's period against
// the scatter upper bound (Figures 11a/11c) and against the theoretical
// lower bound (Figures 11b/11d).
//
// The sweep grid is embarrassingly parallel: each (platform, density)
// cell is an independent task. Run executes the grid on a worker pool
// (Config.Workers) with deterministic per-task seeding — every task
// derives its own rand.Rand from (Config.Seed, platform index, density
// index), so the aggregated cells are bit-identical regardless of the
// number of workers or the order in which tasks complete.
package exp

import (
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/fanout"
	"repro/internal/heur"
	"repro/internal/steady"
	"repro/internal/tiers"
)

// Baseline and heuristic series names, matching the paper's legend.
const (
	SeriesScatter    = "scatter"
	SeriesLowerBound = "lower bound"
	SeriesBroadcast  = "broadcast"
)

// Config parameterises a sweep.
type Config struct {
	// Size selects the platform preset: "small" (30 nodes) or "big"
	// (65 nodes).
	Size string
	// Platforms is the number of random platforms per density (the
	// paper uses 10).
	Platforms int
	// Densities are the target densities over the LAN hosts; nil means
	// DefaultDensities.
	Densities []float64
	// Seed drives platform generation and target selection. Each
	// (platform, density) task derives its own generator from Seed and
	// the task coordinates, so results do not depend on Workers.
	Seed int64
	// Heuristics to run; nil means heur.AllWith bound to each worker's
	// evaluator. An empty non-nil slice runs only the three baselines.
	Heuristics []heur.Heuristic
	// Workers is the number of concurrent sweep workers; values < 1
	// mean runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, receives one line per (platform, density)
	// task. Lines arrive in task order, each as soon as its task and
	// every earlier one have finished (at Workers 1 that is completion
	// order), and all writes happen on the goroutine that called Sweep,
	// so the writer needs no locking of its own.
	Progress io.Writer
}

// DefaultDensities mirrors the paper's sweep: one single target, then
// 20% to 100% of the LAN hosts.
func DefaultDensities() []float64 {
	return []float64{0.05, 0.2, 0.4, 0.6, 0.8, 1.0}
}

// Cell is one aggregated data point: a series at a density.
type Cell struct {
	Density   float64 `json:"density"`
	Series    string  `json:"series"`
	VsScatter float64 `json:"vs_scatter"` // mean period(series) / period(scatter)
	VsLB      float64 `json:"vs_lb"`      // mean period(series) / period(lower bound)
	Runs      int     `json:"runs"`
}

// Task is one unit of sweep work: a single (platform, density) grid
// point.
type Task struct {
	Platform     int     // platform index in [0, Config.Platforms)
	DensityIndex int     // index into the density sweep
	Density      float64 // target density over the LAN hosts
}

// TaskResult is the structured outcome of one task. A task failure is
// carried in Err rather than aborting the sweep, so one disconnected
// platform does not discard the rest of the grid.
type TaskResult struct {
	Task
	Targets int                // size of the drawn target set
	Scatter float64            // scatter bound period (Multicast-UB)
	LB      float64            // lower bound period (Multicast-LB)
	Periods map[string]float64 // period per series (baselines + heuristics)
	// Stats aggregates the task evaluator's LP-solver activity: solves,
	// simplex iterations, warm-start hits, cache hits, cuts.
	Stats steady.SolveStats
	Err   error
}

// DeriveSeed mixes a base seed and integer coordinates through
// splitmix64 into one well-scrambled RNG seed. It is the shared seeding
// path of the sweep engine (one coordinate pair per grid task) and the
// CLIs (cmd/mcast derives its target-drawing stream the same way), so
// every surface that draws random target sets is reproducible from the
// same (seed, coordinates) tuple, independent of go version and worker
// count.
func DeriveSeed(seed int64, coords ...int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	muls := [...]uint64{0xbf58476d1ce4e5b9, 0x94d049bb133111eb}
	for i, c := range coords {
		z = splitmix(z + uint64(c)*muls[i%len(muls)])
	}
	return int64(z >> 1)
}

// NewRNG returns a rand.Rand seeded with DeriveSeed(seed, coords...).
func NewRNG(seed int64, coords ...int) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(seed, coords...)))
}

// Mix64 is the splitmix64 finalizer behind DeriveSeed, exported as the
// repo's one well-scrambled 64-bit mixing function (the serving layer
// routes plan requests over shards with it).
func Mix64(z uint64) uint64 { return splitmix(z) }

// taskSeed derives the deterministic per-task RNG seed from the sweep
// seed and the task coordinates, mixing through splitmix64 so that
// neighbouring tasks get uncorrelated streams.
func taskSeed(seed int64, platform, densityIndex int) int64 {
	return DeriveSeed(seed, platform, densityIndex)
}

func splitmix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Run executes the sweep and returns one Cell per (density, series),
// ordered by density then series name. Configuration-level failures
// (unknown size, platform generation) abort the run; per-task failures
// are aggregated into the returned error while the surviving tasks
// still contribute cells.
func Run(cfg Config) ([]Cell, error) {
	results, err := Sweep(cfg)
	if err != nil {
		return nil, err
	}
	return Aggregate(results), Errors(results)
}

// Sweep executes the task grid on cfg.Workers workers and returns one
// TaskResult per (platform, density) in task order (platform-major),
// independent of worker count and completion order. Per-task failures
// are reported in TaskResult.Err; only configuration-level failures
// return an error.
func Sweep(cfg Config) ([]TaskResult, error) {
	if cfg.Platforms <= 0 {
		cfg.Platforms = 10
	}
	densities := cfg.Densities
	if len(densities) == 0 {
		densities = DefaultDensities()
	}
	// nil Heuristics resolves inside each task: the default registry is
	// bound to the task's own evaluator so all five series of a cell
	// share cached bounds, pooled cuts and one LP workspace.
	heuristics := cfg.Heuristics

	// Platform generation is cheap and deterministic; do it serially up
	// front so every task for platform i shares one read-only topology.
	platforms := make([]*tiers.Platform, cfg.Platforms)
	for pi := range platforms {
		p, err := generate(cfg.Size, cfg.Seed+int64(pi))
		if err != nil {
			return nil, err
		}
		platforms[pi] = p
	}

	tasks := make([]Task, 0, cfg.Platforms*len(densities))
	for pi := 0; pi < cfg.Platforms; pi++ {
		for di, d := range densities {
			tasks = append(tasks, Task{Platform: pi, DensityIndex: di, Density: d})
		}
	}

	results := make([]TaskResult, len(tasks))
	fanout.Ordered(len(tasks), cfg.Workers, func(_ int, claim iter.Seq[int]) {
		// Per-worker scratch: one evaluator — and, when the caller did
		// not supply heuristics, one registry bound to it — is reused
		// for every task this worker runs. Reset() between tasks
		// restores the fresh-evaluator semantics bit for bit (see
		// steady.Evaluator.Reset; no task grows another's stored
		// multisource master) while keeping the LP workspace, flow
		// solver and buffer allocations, so a sweep stops paying a full
		// evaluator allocation per grid point.
		ev := steady.NewEvaluator()
		hs := heuristics
		if hs == nil {
			hs = heur.AllWith(ev)
		}
		for i := range claim {
			t := tasks[i]
			rng := rand.New(rand.NewSource(taskSeed(cfg.Seed, t.Platform, t.DensityIndex)))
			ev.Reset()
			results[i] = runTask(platforms[t.Platform], t, hs, rng, ev)
		}
	}, func(i int) {
		if cfg.Progress == nil {
			return
		}
		r := results[i]
		if r.Err != nil {
			fmt.Fprintf(cfg.Progress, "platform %d density %.2f: error: %v\n", r.Platform, r.Density, r.Err)
			return
		}
		fmt.Fprintf(cfg.Progress, "platform %d density %.2f: |T|=%d scatter=%.1f lb=%.1f\n",
			r.Platform, r.Density, r.Targets, r.Scatter, r.LB)
	})
	return results, nil
}

// runTask draws the target set and computes every series' period for
// one grid point on the worker's (freshly Reset) bound evaluator, so
// the three baselines and every heuristic share LP work — cached
// bounds, pooled cuts, one workspace — and consecutive tasks share the
// allocations. Failures are returned as values on the result. Stats
// are reported as the delta over this task, so the per-task
// attribution is unchanged by the worker-level reuse.
func runTask(platform *tiers.Platform, task Task, heuristics []heur.Heuristic, rng *rand.Rand, ev *steady.Evaluator) TaskResult {
	res := TaskResult{Task: task}
	before := ev.Stats()
	fail := func(err error) TaskResult {
		res.Stats = ev.Stats().Delta(before)
		res.Err = fmt.Errorf("exp: platform %d density %.2f: %w", task.Platform, task.Density, err)
		return res
	}
	targets := platform.RandomTargets(rng, task.Density)
	res.Targets = len(targets)
	p, err := steady.NewProblem(platform.G, platform.Source, targets)
	if err != nil {
		return fail(err)
	}
	scatter, err := ev.ScatterUB(p)
	if err != nil {
		return fail(err)
	}
	lb, err := ev.MulticastLB(p)
	if err != nil {
		return fail(err)
	}
	bc, err := ev.BroadcastEB(platform.G, platform.Source)
	if err != nil {
		return fail(err)
	}
	if scatter.Infeasible() || lb.Infeasible() || bc.Infeasible() {
		return fail(errors.New("generated platform disconnected"))
	}
	res.Scatter, res.LB = scatter.Period, lb.Period
	res.Periods = map[string]float64{
		SeriesScatter:    scatter.Period,
		SeriesLowerBound: lb.Period,
		SeriesBroadcast:  bc.Period,
	}
	for _, h := range heuristics {
		hr, err := h.Run(p)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", h.Name, err))
		}
		if math.IsInf(hr.Period, 1) {
			return fail(fmt.Errorf("%s returned an infinite period", h.Name))
		}
		res.Periods[h.Name] = hr.Period
	}
	res.Stats = ev.Stats().Delta(before)
	return res
}

// Errors joins the per-task failures of a sweep (nil when every task
// succeeded) — the shared fold behind Run and the CLIs' partial-failure
// warnings.
func Errors(results []TaskResult) error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return errors.Join(errs...)
}

// AggregateStats folds the per-task solver statistics of a sweep into
// one total (failed tasks included: their solves happened too).
func AggregateStats(results []TaskResult) steady.SolveStats {
	var total steady.SolveStats
	for i := range results {
		total.Add(results[i].Stats)
	}
	return total
}

// Aggregate folds task results into one Cell per (density, series),
// ordered by density then series name. Failed tasks are skipped. The
// fold visits results in task order, so for a fixed result slice the
// floating-point sums — and hence the cells — are bit-identical
// however the results were produced. Accumulators key on the density
// value, not the sweep index, so duplicate entries in Config.Densities
// merge into one cell (with their runs combined) and the final sort
// over the unique (density, series) keys is total.
func Aggregate(results []TaskResult) []Cell {
	type acc struct {
		vsScatter, vsLB float64
		runs            int
	}
	type key struct {
		density float64
		series  string
	}
	sums := map[key]*acc{}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		// Per-series accumulators each receive their contributions in
		// task order; map iteration order only interleaves independent
		// accumulators, so the sums stay deterministic.
		for series, period := range r.Periods {
			k := key{r.Density, series}
			a := sums[k]
			if a == nil {
				a = &acc{}
				sums[k] = a
			}
			a.vsScatter += period / r.Scatter
			a.vsLB += period / r.LB
			a.runs++
		}
	}
	cells := make([]Cell, 0, len(sums))
	for k, a := range sums {
		cells = append(cells, Cell{
			Density:   k.density,
			Series:    k.series,
			VsScatter: a.vsScatter / float64(a.runs),
			VsLB:      a.vsLB / float64(a.runs),
			Runs:      a.runs,
		})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Density != cells[j].Density {
			return cells[i].Density < cells[j].Density
		}
		return cells[i].Series < cells[j].Series
	})
	return cells
}

func generate(size string, seed int64) (*tiers.Platform, error) {
	switch size {
	case "", "small":
		return tiers.Generate(tiers.Small(seed))
	case "big":
		return tiers.Generate(tiers.Big(seed))
	default:
		return nil, fmt.Errorf("exp: unknown platform size %q", size)
	}
}

// Table renders the cells as a fixed-width table of the chosen ratio
// ("scatter" or "lb"), one row per density, one column per series —
// the textual form of one Figure 11 panel.
func Table(cells []Cell, baseline string) string {
	var seriesNames []string
	seen := map[string]bool{}
	var densities []float64
	seenD := map[float64]bool{}
	for _, c := range cells {
		if !seen[c.Series] {
			seen[c.Series] = true
			seriesNames = append(seriesNames, c.Series)
		}
		if !seenD[c.Density] {
			seenD[c.Density] = true
			densities = append(densities, c.Density)
		}
	}
	sort.Strings(seriesNames)
	sort.Float64s(densities)
	value := func(d float64, s string) (float64, bool) {
		for _, c := range cells {
			if c.Density == d && c.Series == s {
				if baseline == "lb" {
					return c.VsLB, true
				}
				return c.VsScatter, true
			}
		}
		return 0, false
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s", "density")
	for _, s := range seriesNames {
		fmt.Fprintf(&sb, " %15s", s)
	}
	sb.WriteByte('\n')
	for _, d := range densities {
		fmt.Fprintf(&sb, "%-9.3f", d)
		for _, s := range seriesNames {
			if v, ok := value(d, s); ok {
				fmt.Fprintf(&sb, " %15.3f", v)
			} else {
				fmt.Fprintf(&sb, " %15s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
