// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation, in a single process, against the
// library (fig11) or an in-process serve.New daemon on a loopback
// listener (plan-hot, plan-live, whatif), checks every output, and
// prints a human-readable report followed by one JSON result line:
//
//	bash perfbench/run.sh --workload fig11 --seed 3 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json. With --trace 1 the run is split into an untraced and
// a traced half, and the result carries the per-layer metrics; spans
// are kept in memory and written to .bench_build/traces/ at the end.
// METRICS.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/steady"
)

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// workload runs one measured invocation and returns its outcome.
type workload func(cfg config) (*outcome, error)

var workloads = map[string]workload{
	"fig11":     runFig11,
	"plan-hot":  runPlanHot,
	"plan-live": runPlanLive,
	"whatif":    runWhatif,
}

func main() {
	name := flag.String("workload", "", "workload to run: fig11, plan-hot, plan-live or whatif")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	writeGolden := flag.String("write-golden", "", "recompute the fig11 golden periods into this file and exit")
	flag.Parse()

	if *writeGolden != "" {
		if err := writeFig11Golden(*writeGolden); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	res, shown, err := out.result(spec, cfg.trace)
	if err != nil {
		fatal(err)
	}
	if cfg.trace && out.spans != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := out.spans.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	out.print(*name, cfg, res, shown)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// outcome is what a workload run produced: op accounting, the
// correctness verdict, the metrics and (traced runs) the spans.
type outcome struct {
	attempted, failed int
	// problems holds the first failed checks, for the report.
	problems []string
	// values are the metrics of the result line by name (end-to-end
	// metrics with --trace 0, per-layer metrics with --trace 1); info
	// are printed in the report only.
	values map[string]float64
	info   []metric
	spans  *tracer
	// postFailures counts checks failed after the timed window that
	// no single op owns (e.g. a reference that could not be computed).
	postFailures int
}

// fail counts one failed op and records why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note(format, args...)
}

// note records why an op failed, for ops the caller counts itself.
func (o *outcome) note(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// checkAfter records a failed check made after the timed window (on a
// reference computed there); it fails the run without adding an op.
func (o *outcome) checkAfter(format string, args ...any) {
	o.note(format, args...)
	o.postFailures++
}

func (o *outcome) correct() bool { return o.failed == 0 && o.postFailures == 0 }

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// benchSpec is the part of BENCHMARK.json the result line follows:
// the metric names, their units and their order.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads BENCHMARK.json from the repository root, where the
// benchmark runs.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// result builds the result line: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one. A per-layer metric the
// workload did not compute is 0 — that layer does no work in it (see
// METRICS.md); a computed metric the spec does not list is an error.
func (o *outcome) result(spec *benchSpec, traced bool) (*resultLine, []metric, error) {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	res := &resultLine{
		Correct:   o.correct(),
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]resultValue, len(list)),
	}
	var shown []metric
	for _, m := range list {
		v, ok := o.values[m.Name]
		if !ok && !traced {
			return nil, nil, fmt.Errorf("end-to-end metric %s not measured", m.Name)
		}
		res.Metrics[m.Name] = resultValue{Value: v, Unit: m.Unit}
		shown = append(shown, metric{m.Name, m.Unit, v})
	}
	var extra []string
	for name := range o.values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, nil, fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return res, shown, nil
}

// print writes the human-readable report, then the result line last.
func (o *outcome) print(name string, cfg config, res *resultLine, shown []metric) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("workload %s, seed %d, %v measured, %s metrics\n", name, cfg.seed, cfg.seconds, mode)
	all := append(shown, o.info...)
	width := 0
	for _, m := range all {
		width = max(width, len(m.name))
	}
	for _, m := range all {
		fmt.Printf("  %-*s %14.6g %s\n", width, m.name, m.value, m.unit)
	}
	fmt.Printf("  ops attempted %d, failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// endToEnd records the end-to-end metrics of an untraced run. The four
// gated ones exist on every workload; op_tail_ms, fail_frac and
// replan_ms are printed in the report where the workload defines them.
func endToEnd(o *outcome, setup []time.Duration, ph *phase, tailPct float64, replan *latencyHist) {
	o.values = map[string]float64{
		"setup_s":     median(setup).Seconds(),
		"ops_per_s":   ph.opsPerSecond(),
		"op_p50_ms":   ms(ph.lat.quantile(0.5)),
		"heap_p90_mb": quantileFloat(ph.heap, 0.9) / 1e6,
	}
	if tailPct > 0 {
		o.info = append(o.info, metric{fmt.Sprintf("op_tail_ms (p%g)", tailPct), "ms", ms(ph.lat.quantile(tailPct / 100))})
	}
	o.info = append(o.info, metric{"fail_frac", "frac", float64(o.failed) / float64(max(o.attempted, 1))})
	if replan != nil {
		o.info = append(o.info, metric{"replan_ms", "ms", ms(replan.quantile(0.5))})
	}
	o.info = append(o.info, metric{"ops_measured", "count", float64(ph.ops())})
}

// layerMetrics is the per-layer result of a traced run, by the names
// of BENCHMARK.json's per_layer list.
type layerMetrics map[string]float64

// solverLayers fills the steady.* and lp.* counters from the solver
// work of ops ops; lpTime is the wall time that work took (0 when it
// was not timed), for lp.us_per_iter.
func solverLayers(lm layerMetrics, s steady.SolveStats, ops float64, lpTime time.Duration) {
	iters := float64(s.Iterations + s.DualIters)
	lm["steady.cache_hit_frac"] = ratio(float64(s.CacheHits), float64(s.Evaluations))
	lm["steady.fastpath_hit_frac"] = ratio(float64(s.FastPathHits), float64(s.FastPathHits+s.FastPathMisses))
	lm["steady.warm_hold_frac"] = ratio(float64(s.WarmSolves), float64(s.WarmAttempts))
	lm["steady.cut_rounds"] = ratio(float64(s.Rounds), ops)
	lm["steady.cuts"] = ratio(float64(s.Cuts), ops)
	lm["lp.solves"] = ratio(float64(s.Solves), ops)
	lm["lp.simplex_iters"] = ratio(iters, ops)
	lm["lp.iters_per_solve"] = ratio(iters, float64(s.Solves))
	lm["lp.factorizations"] = ratio(float64(s.Factorized), ops)
	lm["lp.refactors"] = ratio(float64(s.Refactors), ops)
	lm["lp.presolve_rows"] = ratio(float64(s.PresolveRows), ops)
	lm["lp.us_per_iter"] = ratio(us(lpTime), iters)
}

// goLayers fills the runtime metrics from the untraced half and the
// tracing overhead from both halves.
func goLayers(lm layerMetrics, untraced, traced *phase) {
	lm["go.alloc_kb_per_op"] = untraced.allocKBPerOp()
	lm["go.gc_cpu_frac"] = untraced.gcCPUFrac()
	lm["trace.overhead_frac"] = 1 - ratio(traced.opsPerSecond(), untraced.opsPerSecond())
}
