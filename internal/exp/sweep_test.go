package exp

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/heur"
	"repro/internal/steady"
)

// detConfig is a reduced sweep used by the determinism tests: small
// platforms and only the cheapest heuristic, so three full runs stay
// fast while still exercising the worker pool across several tasks.
func detConfig(workers int) Config {
	return Config{
		Size:       "small",
		Platforms:  2,
		Densities:  []float64{0.2, 0.8},
		Seed:       7,
		Heuristics: heur.AllWith(nil)[:1], // MCPH, which uses no evaluator
		Workers:    workers,
	}
}

// TestSweepDeterminism is the regression test for the concurrent
// engine's central promise: the aggregated cells are bit-identical
// regardless of worker count, and repeated parallel runs agree with
// each other.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep determinism run is slow")
	}
	serial, err := Run(detConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(detConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Workers=1 and Workers=8 disagree:\n1: %+v\n8: %+v", serial, parallel)
	}
	again, err := Run(detConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel, again) {
		t.Errorf("two Workers=8 runs disagree:\n1st: %+v\n2nd: %+v", parallel, again)
	}
	if len(serial) != 2*4 { // 2 densities x (3 baselines + MCPH)
		t.Fatalf("got %d cells, want 8", len(serial))
	}
}

// TestSweepTaskOrder checks that Sweep returns structured results in
// task order (platform-major) whatever order the workers finish in,
// and that the progress sink sees one line per task.
func TestSweepTaskOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	var progress bytes.Buffer
	cfg := detConfig(4)
	cfg.Progress = &progress
	results, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	want := []Task{
		{Platform: 0, DensityIndex: 0, Density: 0.2},
		{Platform: 0, DensityIndex: 1, Density: 0.8},
		{Platform: 1, DensityIndex: 0, Density: 0.2},
		{Platform: 1, DensityIndex: 1, Density: 0.8},
	}
	for i, r := range results {
		if r.Task != want[i] {
			t.Errorf("result %d task = %+v, want %+v", i, r.Task, want[i])
		}
		if r.Err != nil {
			t.Errorf("result %d failed: %v", i, r.Err)
		}
		if r.Scatter <= 0 || r.LB <= 0 || len(r.Periods) != 4 {
			t.Errorf("result %d not fully populated: %+v", i, r)
		}
	}
	if n := strings.Count(progress.String(), "\n"); n != 4 {
		t.Errorf("progress wrote %d lines, want 4:\n%s", n, progress.String())
	}
}

// TestSweepErrorsAsValues plants a failing heuristic and checks that
// the failure is carried on the task result — and joined into Run's
// error — instead of tearing down the whole sweep.
func TestSweepErrorsAsValues(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	boom := errors.New("boom")
	cfg := Config{
		Size:      "small",
		Platforms: 1,
		Densities: []float64{0.2},
		Seed:      7,
		Heuristics: []heur.Heuristic{{
			Name: "exploding",
			Run:  func(steady.Problem) (*heur.Result, error) { return nil, boom },
		}},
	}
	results, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err == nil || !errors.Is(results[0].Err, boom) {
		t.Fatalf("task error not carried as a value: %+v", results)
	}
	cells, err := Run(cfg)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want wrapped boom", err)
	}
	if len(cells) != 0 {
		t.Fatalf("failed task contributed cells: %+v", cells)
	}
}

// TestAggregateDuplicateDensities checks that duplicate entries in the
// density sweep merge into a single cell keyed by the density value —
// not one ambiguously-ordered cell per sweep index — and that failed
// tasks are excluded from the fold.
func TestAggregateDuplicateDensities(t *testing.T) {
	results := []TaskResult{
		{
			Task:    Task{Platform: 0, DensityIndex: 0, Density: 0.2},
			Scatter: 4, LB: 2,
			Periods: map[string]float64{"MCPH": 2},
		},
		{
			Task:    Task{Platform: 0, DensityIndex: 1, Density: 0.2}, // duplicate density
			Scatter: 4, LB: 2,
			Periods: map[string]float64{"MCPH": 4},
		},
		{
			Task: Task{Platform: 0, DensityIndex: 2, Density: 0.4},
			Err:  errors.New("disconnected"),
		},
	}
	cells := Aggregate(results)
	want := []Cell{{Density: 0.2, Series: "MCPH", VsScatter: 0.75, VsLB: 1.5, Runs: 2}}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("cells = %+v, want %+v", cells, want)
	}
}

func TestTaskSeedDistinct(t *testing.T) {
	seen := map[int64][2]int{}
	for pi := 0; pi < 50; pi++ {
		for di := 0; di < 50; di++ {
			s := taskSeed(1, pi, di)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d) -> %d", prev[0], prev[1], pi, di, s)
			}
			seen[s] = [2]int{pi, di}
		}
	}
	if taskSeed(1, 2, 3) == taskSeed(2, 2, 3) {
		t.Error("base seed does not influence task seed")
	}
}

// TestTableGolden pins the exact rendering of both Figure 11 panel
// baselines, including the missing-cell placeholder.
func TestTableGolden(t *testing.T) {
	cells := []Cell{
		{Density: 0.2, Series: "MCPH", VsScatter: 0.5, VsLB: 1.25, Runs: 10},
		{Density: 0.2, Series: "scatter", VsScatter: 1, VsLB: 2.5, Runs: 10},
		{Density: 0.6, Series: "MCPH", VsScatter: 0.75, VsLB: 1.5, Runs: 10},
	}
	wantScatter := "density              MCPH         scatter\n" +
		"0.200               0.500           1.000\n" +
		"0.600               0.750               -\n"
	wantLB := "density              MCPH         scatter\n" +
		"0.200               1.250           2.500\n" +
		"0.600               1.500               -\n"
	if got := Table(cells, "scatter"); got != wantScatter {
		t.Errorf("scatter table:\ngot:\n%s\nwant:\n%s", got, wantScatter)
	}
	if got := Table(cells, "lb"); got != wantLB {
		t.Errorf("lb table:\ngot:\n%s\nwant:\n%s", got, wantLB)
	}
}

// TestCellsJSONRoundTrip checks that persisted sweeps decode to
// exactly the cells that were encoded, including floats with no finite
// decimal representation.
func TestCellsJSONRoundTrip(t *testing.T) {
	cells := []Cell{
		{Density: 0.05, Series: "MCPH", VsScatter: 1.0 / 3.0, VsLB: 1.7320508075688772, Runs: 10},
		{Density: 1, Series: "lower bound", VsScatter: 0.9999999999999999, VsLB: 1, Runs: 3},
	}
	var buf bytes.Buffer
	if err := EncodeCells(&buf, cells); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCells(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cells) {
		t.Errorf("round trip changed cells:\ngot:  %+v\nwant: %+v", got, cells)
	}
	if _, err := DecodeCells(strings.NewReader(`[{"density": 1, "bogus": 2}]`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestBigDenseTaskConverges replays the Figure 11 grid point that
// `cmd/experiments -size big -platforms 1 -seed 2` used to drop: on
// that platform at density 0.60 (28 targets, in the cutting-plane
// regime) Multicast-LB still adds a cut or two per round when it hits
// its round cap. The bound must then come from the direct form instead
// of failing the task.
func TestBigDenseTaskConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Multicast-LB cutting plane to its round cap")
	}
	platform, err := generate("big", 2)
	if err != nil {
		t.Fatal(err)
	}
	task := Task{Platform: 0, DensityIndex: 3, Density: 0.6}
	rng := rand.New(rand.NewSource(taskSeed(2, task.Platform, task.DensityIndex)))
	r := runTask(platform, task, []heur.Heuristic{}, rng, steady.NewEvaluator())
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Targets != 28 {
		t.Fatalf("drew %d targets, want the 28 of the recorded instance", r.Targets)
	}
	if bc := r.Periods[SeriesBroadcast]; !(r.LB > 0 && r.LB <= r.Scatter && r.LB <= bc) {
		t.Errorf("lower bound %v out of order with scatter %v and broadcast %v", r.LB, r.Scatter, bc)
	}
}
