package repro_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// TestFacadeEndToEnd drives the whole public surface on the paper's
// Figure 1 example: bounds, heuristics, exact optimum and simulation.
func TestFacadeEndToEnd(t *testing.T) {
	pl := repro.Figure1()
	p, err := repro.NewProblem(pl.G, pl.Source, pl.Targets)
	if err != nil {
		t.Fatal(err)
	}
	ev := repro.NewEvaluator()
	ev.SetFastPath(false)
	lb, err := ev.MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := ev.ScatterUB(p)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Period > ub.Period {
		t.Fatalf("LB %v > UB %v", lb.Period, ub.Period)
	}
	pk, err := repro.Optimal(pl.G, pl.Source, pl.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pk.Throughput-1) > 1e-6 {
		t.Fatalf("optimal throughput = %v, want 1", pk.Throughput)
	}
	_, single, err := repro.BestSingleTree(pl.G, pl.Source, pl.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if single <= pk.Period()+1e-9 {
		t.Fatalf("single tree %v should be worse than packing %v", single, pk.Period())
	}
	for _, h := range repro.HeuristicsWith(repro.NewEvaluator()) {
		res, err := h.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		if res.Period < lb.Period-1e-6 {
			t.Fatalf("%s beats the lower bound", h.Name)
		}
	}
	rep, err := repro.Simulate(pl.G, pl.Source, pl.Targets, pk.Trees, 120)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput < 0.85 {
		t.Fatalf("simulated optimal packing at %v", rep.Throughput)
	}
}

func TestFacadeTiersAndSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	pl, err := repro.GenerateSmallPlatform(5)
	if err != nil {
		t.Fatal(err)
	}
	if pl.G.NumNodes() != 30 {
		t.Fatalf("small platform nodes = %d", pl.G.NumNodes())
	}
	cells, err := repro.RunSweep(repro.SweepConfig{
		Size:      "small",
		Platforms: 1,
		Densities: []float64{0.3},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("empty sweep")
	}
	if out := repro.SweepTable(cells, "lb"); len(out) == 0 {
		t.Fatal("empty table")
	}
}

// TestFacadeServe drives the exported serving surface: upload a
// platform over HTTP, plan against it, and read the stats endpoint.
func TestFacadeServe(t *testing.T) {
	srv := repro.NewPlanServer(repro.ServeConfig{Shards: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	pl := repro.Figure1()
	var text strings.Builder
	if err := pl.G.Encode(&text); err != nil {
		t.Fatal(err)
	}
	upload, _ := json.Marshal(repro.PlatformUpload{
		ID: "fig1", Platform: text.String(), Source: pl.G.Name(pl.Source),
	})
	resp, err := http.Post(ts.URL+"/v1/platforms", "application/json", bytes.NewReader(upload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", resp.StatusCode)
	}

	var targets []string
	for _, id := range pl.Targets {
		targets = append(targets, pl.G.Name(id))
	}
	plan, _ := json.Marshal(repro.PlanRequest{PlanSpec: repro.PlanSpec{PlatformID: "fig1", Targets: targets}})
	resp, err = http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d", resp.StatusCode)
	}
	var pr repro.PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Bounds) != 3 || len(pr.Plans) != 4 {
		t.Fatalf("plan shape: %d bounds, %d plans", len(pr.Bounds), len(pr.Plans))
	}
	// The served lower bound must agree with the direct library call.
	p, err := repro.NewProblem(pl.G, pl.Source, pl.Targets)
	if err != nil {
		t.Fatal(err)
	}
	ev := repro.NewEvaluator()
	ev.SetFastPath(false)
	lb, err := ev.MulticastLB(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pr.Bounds {
		if b.Name == "lb" && math.Float64bits(b.Period) != math.Float64bits(lb.Period) {
			t.Errorf("served lb %v != library %v", b.Period, lb.Period)
		}
	}

	stats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var st struct {
		Shards int `json:"shards"`
		Solver struct {
			Solves int `json:"Solves"`
		} `json:"solver"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.Solver.Solves == 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestFacadeWhatIf drives the resilience engine through the public
// surface on the Figure 1 example: the default scenario family runs,
// deltas are measured against the baseline, and the criticality
// rankings are populated and sorted worst-first.
func TestFacadeWhatIf(t *testing.T) {
	pl := repro.Figure1()
	p, err := repro.NewProblem(pl.G, pl.Source, pl.Targets)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repro.WhatIf(p, repro.WhatIfDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 || len(rep.Results) != len(rep.Scenarios) {
		t.Fatalf("results/scenarios mismatch: %d vs %d", len(rep.Results), len(rep.Scenarios))
	}
	for i, r := range rep.Results {
		if r.Err != nil {
			t.Errorf("scenario %d: %v", i, r.Err)
		}
	}
	if len(rep.CriticalNodes) == 0 || len(rep.CriticalEdges) == 0 {
		t.Fatal("empty criticality rankings")
	}
	for i := 1; i < len(rep.CriticalNodes); i++ {
		if rep.CriticalNodes[i-1].Delta > rep.CriticalNodes[i].Delta {
			t.Fatal("critical nodes are not sorted worst-first")
		}
	}
	if rep.BaselineStats.Solves == 0 {
		t.Errorf("baseline recorded no solves: %+v", rep.BaselineStats)
	}
}
