package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/steady"
	"repro/internal/whatif"
)

// expectedWhatifBody builds the serial single-evaluator reference for
// a what-if request: baseline on a fresh evaluator, then every
// scenario in enumeration order on a clone of the baseline evaluator
// over a private platform copy — exactly what the handler's shard
// fan-out must reproduce byte for byte.
func expectedWhatifBody(t *testing.T, s *Server, req *WhatifRequest) []byte {
	t.Helper()
	res, err := s.resolve(&req.PlanSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := whatifConfig(res.g, req)
	if err != nil {
		t.Fatal(err)
	}
	base, err := whatif.NewBaseline(steady.NewEvaluator(), res.p)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := whatif.Enumerate(res.g, res.source, cfg)
	results := make([]whatif.Result, len(scenarios))
	for i, sc := range scenarios {
		results[i] = whatif.Eval(base, base.Ev.Clone(), res.g.Clone(), sc)
	}
	rep := whatif.BuildReport(base, scenarios, results)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	lines := []WhatifLine{whatifBaselineLine(res.id, res.fp, base, len(scenarios))}
	for _, r := range results {
		lines = append(lines, whatifScenarioLine(res.g, r))
	}
	lines = append(lines, whatifSummaryLine(res.g, rep))
	for _, line := range lines {
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestWhatifEndpoint checks the NDJSON shape and the semantics on the
// diamond platform: one baseline line, one line per scenario in
// enumeration order, one summary, and sensible criticality.
func TestWhatifEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	w := doJSON(t, s, http.MethodPost, "/v1/whatif", WhatifRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1", "t2"}}})
	if w.Code != http.StatusOK {
		t.Fatalf("whatif: %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	raw := strings.TrimSuffix(w.Body.String(), "\n")
	var lines []WhatifLine
	for _, ln := range strings.Split(raw, "\n") {
		var l WhatifLine
		if err := json.Unmarshal([]byte(ln), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		lines = append(lines, l)
	}
	// Diamond: 4 node failures + 8 link failures + 4 promotions.
	const scenarios = 4 + 8 + 4
	if len(lines) != scenarios+2 {
		t.Fatalf("got %d lines, want %d", len(lines), scenarios+2)
	}
	head, tail := lines[0], lines[len(lines)-1]
	if head.Kind != "baseline" || head.Scenarios != scenarios || head.PlatformID != "d" || head.LBPeriod <= 0 {
		t.Errorf("baseline line: %+v", head)
	}
	if tail.Kind != "summary" || tail.Scenarios != scenarios || tail.Errors != 0 {
		t.Errorf("summary line: %+v", tail)
	}
	if len(tail.CriticalNodes) != 4 || len(tail.CriticalEdges) != 8 {
		t.Errorf("rankings: %d nodes, %d edges", len(tail.CriticalNodes), len(tail.CriticalEdges))
	}
	// Deltas rank throughput for the surviving targets, so losing a
	// relay (which throttles everyone left) must rank worst — losing a
	// target merely shrinks the demand.
	worst := tail.CriticalNodes[0]
	if worst.Node != "r1" && worst.Node != "r2" {
		t.Errorf("worst node %+v, want a relay", worst)
	}
	for _, l := range lines[1 : scenarios+1] {
		if l.Error != "" {
			t.Errorf("scenario error: %+v", l)
		}
	}
	// Per-scenario order: node failures first (by node ID), then edges,
	// then promotions.
	if lines[1].Kind != string(whatif.KindNodeFailure) {
		t.Errorf("first scenario line: %+v", lines[1])
	}
	if lines[scenarios].Kind != string(whatif.KindPromoteSource) {
		t.Errorf("last scenario line: %+v", lines[scenarios])
	}

	// Stats: the request and its scenarios are accounted.
	st := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Whatif.Requests != 1 || st.Whatif.Scenarios != scenarios || st.Whatif.Solver.Evaluations == 0 {
		t.Errorf("whatif stats: %+v", st.Whatif)
	}
}

func TestWhatifValidation(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	f := func(v float64) []float64 { return []float64{v} }
	cases := []struct {
		req  WhatifRequest
		want int
	}{
		{WhatifRequest{PlanSpec: PlanSpec{PlatformID: "missing", Targets: []string{"t1"}}}, http.StatusNotFound},
		{WhatifRequest{PlanSpec: PlanSpec{PlatformID: "d"}}, http.StatusBadRequest},                                              // no targets
		{WhatifRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"zz"}}}, http.StatusBadRequest},                     // unknown target
		{WhatifRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}}, EdgeFactors: f(-1)}, http.StatusBadRequest}, // negative factor
		{WhatifRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}}, FailNodes: []string{"zz"}}, http.StatusBadRequest},
		{WhatifRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}}, Sources: []string{"zz"}}, http.StatusBadRequest},
	}
	for i, c := range cases {
		if w := doJSON(t, s, http.MethodPost, "/v1/whatif", c.req); w.Code != c.want {
			t.Errorf("case %d: got %d, want %d (%s)", i, w.Code, c.want, w.Body.String())
		}
	}
	// JSON cannot carry NaN or Inf, but whatifConfig is also a library
	// path: it rejects them as bad requests rather than panicking in
	// SetEdgeCost mid-stream.
	g, err := graph.Decode(strings.NewReader(diamondText))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		_, err := whatifConfig(g, &WhatifRequest{EdgeFactors: f(v)})
		var ae *apiError
		if !errors.As(err, &ae) || ae.code != CodeBadRequest {
			t.Errorf("factor %v: whatifConfig error %v, want bad_request", v, err)
		}
	}
}

// TestWhatifScenarioSubsets: explicit empty lists disable families and
// explicit candidates restrict them.
func TestWhatifScenarioSubsets(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	off := false
	w := doJSON(t, s, http.MethodPost, "/v1/whatif", WhatifRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1", "t2"}}, NodeFailures: &off, EdgeFactors: []float64{}, Sources: []string{"r1"}})
	if w.Code != http.StatusOK {
		t.Fatalf("whatif: %d %s", w.Code, w.Body.String())
	}
	lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
	if len(lines) != 3 { // baseline + 1 promotion + summary
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), w.Body.String())
	}
	var sc WhatifLine
	if err := json.Unmarshal([]byte(lines[1]), &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Kind != string(whatif.KindPromoteSource) || sc.Node != "r1" {
		t.Errorf("scenario line: %+v", sc)
	}
}

// TestConcurrentWhatifBitIdenticalToSerial is the /v1/whatif extension
// of the plan determinism test: 8 goroutines hammer the endpoint with
// a mix of what-if requests while plan traffic shares the shard lanes,
// and every streamed NDJSON body must be byte-identical to the serial
// single-evaluator scenario loop.
func TestConcurrentWhatifBitIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent determinism run is slow")
	}
	s := newTestServer(t, Config{Shards: 4})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "d", Platform: diamondText, Source: "S"})

	specs := []*WhatifRequest{
		{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1", "t2"}}},
		{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}}, EdgeFactors: []float64{0, 4}},
		{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t2", "t1"}}, Sources: []string{}},
	}
	expected := make([][]byte, len(specs))
	requests := make([][]byte, len(specs))
	for i, spec := range specs {
		expected[i] = expectedWhatifBody(t, s, spec)
		var err error
		requests[i], err = json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
	}

	planReq, err := json.Marshal(PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}, Heuristics: []string{"MCPH"}}})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perGoroutine = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perGoroutine)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for n := 0; n < perGoroutine; n++ {
				i := (gi + n) % len(specs)
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewReader(requests[i])))
				if w.Code != http.StatusOK {
					errs <- w.Body.String()
					continue
				}
				if !bytes.Equal(w.Body.Bytes(), expected[i]) {
					errs <- "whatif response diverged from the serial reference"
				}
				// Interleave plan traffic on the same shard lanes.
				pw := httptest.NewRecorder()
				s.ServeHTTP(pw, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(planReq)))
				if pw.Code != http.StatusOK {
					errs <- pw.Body.String()
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	st := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Whatif.Requests != goroutines*perGoroutine {
		t.Errorf("whatif requests %d, want %d", st.Whatif.Requests, goroutines*perGoroutine)
	}
}

// treeText is an out-tree platform: every bound on it takes the
// combinatorial fast path.
const treeText = `
node S
edge S a 2
edge S b 3
edge a c 1
edge a d 4
`

// TestWhatifTreeFastPathStats drives /v1/whatif and /v1/plan on a tree
// platform and checks the fast-path accounting end to end: the summary
// line's fast_path_scenarios, the what-if section of /v1/stats, and
// the shard solver section's FastPathHits.
func TestWhatifTreeFastPathStats(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "tr", Platform: treeText, Source: "S"})
	w := doJSON(t, s, http.MethodPost, "/v1/whatif", WhatifRequest{PlanSpec: PlanSpec{PlatformID: "tr", Targets: []string{"a", "b", "c", "d"}}, Sources: []string{}})
	if w.Code != http.StatusOK {
		t.Fatalf("whatif: %d %s", w.Code, w.Body.String())
	}
	raw := strings.TrimSuffix(w.Body.String(), "\n")
	parts := strings.Split(raw, "\n")
	var tail WhatifLine
	if err := json.Unmarshal([]byte(parts[len(parts)-1]), &tail); err != nil {
		t.Fatal(err)
	}
	// 4 node failures + 4 link failures, every one on a (sub)tree.
	const scenarios = 4 + 4
	if tail.Kind != "summary" || tail.Scenarios != scenarios {
		t.Fatalf("summary line: %+v", tail)
	}
	if tail.FastPathScenarios != scenarios {
		t.Errorf("summary fast_path_scenarios = %d, want %d", tail.FastPathScenarios, scenarios)
	}

	st := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Whatif.FastPathScenarios != scenarios {
		t.Errorf("stats whatif fast_path_scenarios = %d, want %d", st.Whatif.FastPathScenarios, scenarios)
	}
	if st.Whatif.Solver.FastPathHits < scenarios {
		t.Errorf("whatif solver FastPathHits = %d, want >= %d", st.Whatif.Solver.FastPathHits, scenarios)
	}

	// A bounds-only plan on the same platform lands its fast-path hits
	// in the shard solver section.
	pw := doJSON(t, s, http.MethodPost, "/v1/plan", PlanRequest{PlanSpec: PlanSpec{PlatformID: "tr", Targets: []string{"c", "d"}, Bounds: []string{"lb", "scatter"}, Heuristics: []string{}}, NoCache: true})
	if pw.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", pw.Code, pw.Body.String())
	}
	st = decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Solver.FastPathHits == 0 {
		t.Error("shard solver stats show no fast-path hits after a tree plan")
	}
}

// TestWhatifDominatedStats: on the tree platform with targets c and d,
// the relay b and its link S>b carry no load, so failing either is
// answered from the baseline. /v1/stats counts both under
// whatif.dominated_scenarios, while the NDJSON lines keep their schema
// and report a zero delta for them.
func TestWhatifDominatedStats(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "tr", Platform: treeText, Source: "S"})
	w := doJSON(t, s, http.MethodPost, "/v1/whatif", WhatifRequest{PlanSpec: PlanSpec{PlatformID: "tr", Targets: []string{"c", "d"}}, Sources: []string{}})
	if w.Code != http.StatusOK {
		t.Fatalf("whatif: %d %s", w.Code, w.Body.String())
	}
	if strings.Contains(w.Body.String(), "dominated") {
		t.Errorf("the NDJSON body names the dominated count:\n%s", w.Body.String())
	}
	for _, raw := range strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n") {
		var line WhatifLine
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatal(err)
		}
		idle := line.Node == "b" || (line.Edge != nil && line.Edge.To == "b")
		if idle && (line.Delta != 0 || line.Infeasible) {
			t.Errorf("failing the idle relay or its link changed the throughput: %s", raw)
		}
	}
	st := decodeJSON[StatsResponse](t, doJSON(t, s, http.MethodGet, "/v1/stats", nil))
	if st.Whatif.DominatedScenarios != 2 {
		t.Errorf("stats whatif dominated_scenarios = %d, want 2", st.Whatif.DominatedScenarios)
	}
}
