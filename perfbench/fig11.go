package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/exp"
	"repro/internal/heur"
	"repro/internal/steady"
	"repro/internal/tiers"
)

// The fig11 grid: both Tiers sizes, one platform each, all six default
// densities — 12 tasks per pass, each drawing targets and running the
// 3 bounds and 4 heuristics through exp.Sweep with Workers: 1.
//
// The platforms are fixed by fig11PlatformSeed; --seed picks one of the
// density orders of the golden pool. A task's targets are drawn from
// (sweep seed, platform, density index), so a density order is a
// different target set for every density on the same platforms.
// Platforms drawn from --seed moved a pass by ±20% across seeds, target
// draws alone by ±12% (see writeFig11Golden for the pool).
const (
	fig11PlatformSeed = 1
	fig11Platforms    = 1
	fig11PoolSize     = 16
	fig11Candidates   = 48
	fig11RelTol       = 1e-9
)

var fig11Sizes = []string{"small", "big"}

//go:embed fig11_golden.json
var fig11GoldenJSON []byte

// fig11Golden is the committed reference: per pool entry (one density
// order), the scatter, lower-bound and broadcast periods of every
// task, in exp.Sweep's task order (platform-major, then density
// order). Candidates, PassIters and TaskItersP50 record how the pool
// was chosen (see writeFig11Golden); Failed lists candidate orders
// whose sweep reported a task error.
type fig11Golden struct {
	PlatformSeed int64         `json:"platform_seed"`
	Platforms    int           `json:"platforms"`
	Candidates   int           `json:"candidates"`
	Failed       []fig11Failed `json:"failed,omitempty"`
	Entries      []fig11Entry  `json:"entries"`
}

type fig11Entry struct {
	Candidate    int                     `json:"candidate"`
	Densities    []float64               `json:"densities"`
	PassIters    float64                 `json:"pass_iters"`
	TaskItersP50 float64                 `json:"task_iters_p50"`
	Periods      map[string][][3]float64 `json:"periods"`
}

type fig11Failed struct {
	Candidate int       `json:"candidate"`
	Densities []float64 `json:"densities"`
	Error     string    `json:"error"`
}

func loadFig11Golden() (*fig11Golden, error) {
	var g fig11Golden
	if err := json.Unmarshal(fig11GoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("fig11 golden: %w", err)
	}
	if g.PlatformSeed != fig11PlatformSeed || g.Platforms != fig11Platforms || len(g.Entries) != fig11PoolSize {
		return nil, errors.New("fig11 golden: stale file, regenerate it with --write-golden")
	}
	return &g, nil
}

// fig11Order is the density order of candidate k.
func fig11Order(k int) []float64 {
	d := exp.DefaultDensities()
	rng := exp.NewRNG(int64(k), 11)
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

func poolIndex(seed int64, n int) int {
	return int((seed%int64(n) + int64(n)) % int64(n))
}

// writeFig11Golden sweeps fig11Candidates density orders and keeps the
// fig11PoolSize orders whose solver work lies closest to the
// candidates' medians: simplex iterations per pass and of the median
// task. Keeping the middle of the distribution lets --seed change which
// targets are drawn while changing the work of a pass less (the pool's
// pass times spread 10% against the candidates' 16%, IQR over median).
// The choice rests on solver counts, not timings, so it is the same on
// every machine and under any noise while it runs. The sweep is
// bit-identical for any worker count, so it uses two.
func writeFig11Golden(path string) error {
	g := fig11Golden{PlatformSeed: fig11PlatformSeed, Platforms: fig11Platforms, Candidates: fig11Candidates}
	var cands []fig11Entry
	for k := 0; k < fig11Candidates; k++ {
		e, err := sweepCandidate(k)
		if err != nil {
			g.Failed = append(g.Failed, fig11Failed{Candidate: k, Densities: e.Densities, Error: err.Error()})
			fmt.Fprintf(os.Stderr, "candidate %d: %v\n", k, err)
			continue
		}
		cands = append(cands, e)
		fmt.Fprintf(os.Stderr, "candidate %d: %.0f iterations, task median %.0f\n", k, e.PassIters, e.TaskItersP50)
	}
	if len(cands) < fig11PoolSize {
		return fmt.Errorf("only %d of %d candidates swept cleanly", len(cands), fig11Candidates)
	}
	var passes, p50s []float64
	for _, e := range cands {
		passes = append(passes, e.PassIters)
		p50s = append(p50s, e.TaskItersP50)
	}
	mp, m50 := quantileFloat(passes, 0.5), quantileFloat(p50s, 0.5)
	dist := func(e fig11Entry) float64 {
		return math.Abs(e.PassIters/mp-1) + math.Abs(e.TaskItersP50/m50-1)
	}
	sort.SliceStable(cands, func(i, j int) bool { return dist(cands[i]) < dist(cands[j]) })
	g.Entries = cands[:fig11PoolSize]
	sort.Slice(g.Entries, func(i, j int) bool { return g.Entries[i].Candidate < g.Entries[j].Candidate })
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sweepCandidate runs candidate k's grid and returns its periods and
// solver work.
func sweepCandidate(k int) (fig11Entry, error) {
	e := fig11Entry{Candidate: k, Densities: fig11Order(k), Periods: map[string][][3]float64{}}
	var tasks []float64
	for _, size := range fig11Sizes {
		res, err := exp.Sweep(exp.Config{Size: size, Platforms: fig11Platforms, Seed: fig11PlatformSeed, Densities: e.Densities, Workers: 2})
		if err == nil {
			err = exp.Errors(res)
		}
		if err != nil {
			return e, err
		}
		for _, r := range res {
			e.Periods[size] = append(e.Periods[size], [3]float64{r.Scatter, r.LB, r.Periods[exp.SeriesBroadcast]})
			it := float64(r.Stats.Iterations + r.Stats.DualIters)
			tasks = append(tasks, it)
			e.PassIters += it
		}
	}
	e.TaskItersP50 = quantileFloat(tasks, 0.5)
	return e, nil
}

// checkFig11Task is the fig11 output check: the three baselines match
// the golden periods to fig11RelTol, and every heuristic period is
// finite and no better than the lower bound.
func checkFig11Task(r exp.TaskResult, want [3]float64) error {
	if r.Err != nil {
		return r.Err
	}
	got := [3]float64{r.Scatter, r.LB, r.Periods[exp.SeriesBroadcast]}
	for i, name := range []string{"scatter", "lb", "broadcast"} {
		if math.Abs(got[i]-want[i]) > fig11RelTol*math.Abs(want[i]) {
			return fmt.Errorf("%s period %v, golden %v", name, got[i], want[i])
		}
	}
	for name, p := range r.Periods {
		switch name {
		case exp.SeriesScatter, exp.SeriesLowerBound, exp.SeriesBroadcast:
			continue
		}
		if math.IsInf(p, 0) || math.IsNaN(p) || p < r.LB*(1-fig11RelTol) {
			return fmt.Errorf("%s period %v against lower bound %v", name, p, r.LB)
		}
	}
	return nil
}

// progressClock timestamps exp.Sweep's Progress lines: the time since
// the previous line (or the Sweep call) is that task's latency. The
// serial sweep writes one line per task, from one goroutine.
type progressClock struct {
	pc   *phaseClock
	last time.Time
}

func (p *progressClock) Write(b []byte) (int, error) {
	now := time.Now()
	p.pc.record(now.Sub(p.last))
	p.last = now
	return len(b), nil
}

type fig11State struct {
	entry     fig11Entry
	platforms map[string][]*tiers.Platform
}

func fig11Setup(seed int64) (*fig11State, error) {
	g, err := loadFig11Golden()
	if err != nil {
		return nil, err
	}
	st := &fig11State{entry: g.Entries[poolIndex(seed, len(g.Entries))], platforms: map[string][]*tiers.Platform{}}
	for _, size := range fig11Sizes {
		for pi := 0; pi < fig11Platforms; pi++ {
			cfg := tiers.Small(fig11PlatformSeed + int64(pi))
			if size == "big" {
				cfg = tiers.Big(fig11PlatformSeed + int64(pi))
			}
			p, err := tiers.Generate(cfg)
			if err != nil {
				return nil, err
			}
			st.platforms[size] = append(st.platforms[size], p)
		}
	}
	// Warm-up: one small task through the same serial sweep, the same
	// task for every seed so that set-up time does not depend on it.
	res, err := exp.Sweep(exp.Config{Size: "small", Platforms: 1, Seed: fig11PlatformSeed, Densities: []float64{0.2}, Workers: 1})
	if err != nil {
		return nil, err
	}
	if err := exp.Errors(res); err != nil {
		return nil, fmt.Errorf("fig11 warm-up task: %w", err)
	}
	return st, nil
}

// sweepPass runs one pass of the grid through exp.Sweep, recording a
// latency per task and checking every task against the golden periods.
func (st *fig11State) sweepPass(pc *phaseClock, o *outcome) (map[string][]exp.TaskResult, error) {
	out := map[string][]exp.TaskResult{}
	for _, size := range fig11Sizes {
		res, err := exp.Sweep(exp.Config{
			Size:      size,
			Platforms: fig11Platforms,
			Seed:      fig11PlatformSeed,
			Densities: st.entry.Densities,
			Workers:   1,
			Progress:  &progressClock{pc: pc, last: time.Now()},
		})
		if err != nil {
			return nil, err
		}
		for i, r := range res {
			o.attempted++
			if err := checkFig11Task(r, st.entry.Periods[size][i]); err != nil {
				o.fail("fig11 %s task %d: %v", size, i, err)
			}
		}
		out[size] = res
	}
	return out, nil
}

// heurSpan names the span of each heuristic of heur.AllWith.
var heurSpan = map[string]string{
	"MCPH":           "heur.mcph",
	"Augm. MC":       "heur.augm_mc",
	"Red. BC":        "heur.red_bc",
	"Multisource MC": "heur.multisource_mc",
}

// replayPass re-runs every task of a pass through the library calls
// exp.Sweep makes (one evaluator, Reset per task, heur.AllWith bound
// to it), with a span around each bound and heuristic. The periods
// must equal the sweep's bit for bit.
func (st *fig11State) replayPass(pc *phaseClock, tr *tracer, op *int64, want map[string][]exp.TaskResult, o *outcome) (evals int) {
	ev := steady.NewEvaluator()
	hs := heur.AllWith(ev)
	for _, size := range fig11Sizes {
		task := 0
		for pi, platform := range st.platforms[size] {
			for di, d := range st.entry.Densities {
				*op++
				o.attempted++
				ev.Reset()
				start := ev.Stats()
				root := tr.begin("exp.task", 0, *op)
				periods, n, err := replayTask(tr, root.s.ID, *op, ev, hs, platform, exp.NewRNG(fig11PlatformSeed, pi, di), d)
				delta := ev.Stats().Delta(start)
				s := root.endStats(&delta)
				pc.record(s.dur())
				evals += n
				ref := want[size][task]
				switch {
				case err != nil:
					o.fail("fig11 replay %s task %d: %v", size, task, err)
				case !equalPeriods(periods, ref.Periods):
					o.fail("fig11 replay %s task %d: periods %v, sweep %v", size, task, periods, ref.Periods)
				}
				task++
			}
		}
	}
	return evals
}

func replayTask(tr *tracer, parent, op int64, ev *steady.Evaluator, hs []heur.Heuristic, platform *tiers.Platform, rng *rand.Rand, density float64) (map[string]float64, int, error) {
	targets := platform.RandomTargets(rng, density)
	p, err := steady.NewProblem(platform.G, platform.Source, targets)
	if err != nil {
		return nil, 0, err
	}
	periods := map[string]float64{}
	bound := func(series, name string, f func() (*steady.Bound, error)) error {
		before := ev.Stats()
		sp := tr.begin(name, parent, op)
		b, err := f()
		delta := ev.Stats().Delta(before)
		sp.endStats(&delta)
		if err != nil {
			return err
		}
		periods[series] = b.Period
		return nil
	}
	if err := bound(exp.SeriesScatter, "steady.scatter_ub", func() (*steady.Bound, error) { return ev.ScatterUB(p) }); err != nil {
		return nil, 0, err
	}
	if err := bound(exp.SeriesLowerBound, "steady.multicast_lb", func() (*steady.Bound, error) { return ev.MulticastLB(p) }); err != nil {
		return nil, 0, err
	}
	if err := bound(exp.SeriesBroadcast, "steady.broadcast_eb", func() (*steady.Bound, error) { return ev.BroadcastEB(platform.G, platform.Source) }); err != nil {
		return nil, 0, err
	}
	evals := 0
	for _, h := range hs {
		before := ev.Stats()
		sp := tr.begin(heurSpan[h.Name], parent, op)
		hr, err := h.Run(p)
		delta := ev.Stats().Delta(before)
		sp.endStats(&delta)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", h.Name, err)
		}
		periods[h.Name] = hr.Period
		evals += hr.Evals
	}
	return periods, evals, nil
}

func equalPeriods(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// runPasses runs whole passes for about budget (see morePasses).
func runPasses(pc *phaseClock, budget time.Duration, pass func() error) error {
	for n := 0; morePasses(time.Since(pc.start), budget, n); n++ {
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}

func runFig11(cfg config) (*outcome, error) {
	st, setup, err := repeatSetup(func() (*fig11State, error) { return fig11Setup(cfg.seed) }, func(*fig11State) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	if !cfg.trace {
		pc := startPhase(cfg.seconds)
		if err := runPasses(pc, cfg.seconds, func() error { _, err := st.sweepPass(pc, o); return err }); err != nil {
			return nil, err
		}
		endToEnd(o, setup, pc.finish(), 0, nil)
		return o, nil
	}

	// Traced run: an untraced half through exp.Sweep, then a traced
	// half replaying the same tasks through the library calls.
	var last map[string][]exp.TaskResult
	pcA := startPhase(cfg.seconds / 2)
	passesA := 0
	if err := runPasses(pcA, cfg.seconds/2, func() error {
		passesA++
		var err error
		last, err = st.sweepPass(pcA, o)
		return err
	}); err != nil {
		return nil, err
	}
	phA := pcA.finish()

	tr := newTracer()
	o.spans = tr
	pcB := startPhase(cfg.seconds / 2)
	var op int64
	evals, passesB := 0, 0
	if err := runPasses(pcB, cfg.seconds/2, func() error {
		passesB++
		evals += st.replayPass(pcB, tr, &op, last, o)
		return nil
	}); err != nil {
		return nil, err
	}
	phB := pcB.finish()

	var stats steady.SolveStats
	for _, s := range tr.named("exp.task") {
		stats.Add(*s.Stats)
	}
	tasks := float64(phB.ops())
	taskTime := tr.total("exp.task")
	lm := layerMetrics{
		"exp.overhead_frac": 1 - (taskTime.Seconds()/float64(passesB))/(phA.wall.Seconds()/float64(passesA)),
		"heur.evals":        float64(evals) / tasks,
	}
	for _, name := range []string{"heur.mcph", "heur.augm_mc", "heur.red_bc", "heur.multisource_mc",
		"steady.scatter_ub", "steady.multicast_lb", "steady.broadcast_eb"} {
		lm[name+".share"] = ratio(tr.total(name).Seconds(), taskTime.Seconds())
	}
	solverLayers(lm, stats, tasks, taskTime)
	goLayers(lm, phA, phB)
	o.values = lm
	return o, nil
}
