package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/steady"
	"repro/internal/whatif"
)

// WhatifRequest is the body of POST /v1/whatif: the shared PlanSpec
// request core (platform / source / target addressing) plus the
// scenario family. The PlanSpec bounds/heuristics subsets have no
// meaning for what-if analysis — a request that sets either is
// rejected with bad_request rather than silently ignored.
type WhatifRequest struct {
	PlanSpec
	// NodeFailures selects the single-node-failure family; omitted (or
	// null) means enabled.
	NodeFailures *bool `json:"node_failures,omitempty"`
	// FailNodes restricts node failures to these nodes; omitted or null
	// means every active non-source node.
	FailNodes []string `json:"fail_nodes"`
	// EdgeFactors selects the per-edge scenarios: 0 is a link failure,
	// f > 1 multiplies the edge cost by f (bandwidth degradation).
	// Omitted or null means [0] (every link failure); an explicit empty
	// list means no edge scenarios.
	EdgeFactors []float64 `json:"edge_factors"`
	// Sources lists the secondary-source promotion candidates. Omitted
	// or null means every active non-source node; empty means none.
	Sources []string `json:"sources"`
	// TimeoutMillis bounds the whole analysis in milliseconds (clamped
	// to MaxTimeout; 0 defers to DefaultTimeout). An expired budget
	// fails the baseline with 503/deadline, or — once streaming — drains
	// the remaining scenario lines with per-scenario errors.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// WhatifEdge identifies a platform edge on the wire.
type WhatifEdge struct {
	ID   int    `json:"id"`
	From string `json:"from"`
	To   string `json:"to"`
}

// WhatifLine is one NDJSON line of a /v1/whatif response. The first
// line has Kind "baseline", then one line per scenario in the
// deterministic enumeration order (node failures by node ID, edge
// scenarios by edge ID with factors in request order, promotions in
// candidate order), and a final "summary" line. Like PlanResponse, the
// full line sequence is a pure function of the request and the
// platform content: the concurrent shard fan-out is bit-identical to
// the serial single-evaluator scenario loop.
type WhatifLine struct {
	Kind string `json:"kind"`

	// Baseline fields.
	PlatformID        string   `json:"platform_id,omitempty"`
	Fingerprint       string   `json:"fingerprint,omitempty"`
	Source            string   `json:"source,omitempty"`
	Targets           []string `json:"targets,omitempty"`
	Scenarios         int      `json:"scenarios,omitempty"`
	LBPeriod          float64  `json:"lb_period,omitempty"`
	MultiSourcePeriod float64  `json:"multisource_period,omitempty"`

	// Scenario fields.
	Node         string      `json:"node,omitempty"`
	Edge         *WhatifEdge `json:"edge,omitempty"`
	Factor       float64     `json:"factor,omitempty"`
	Infeasible   bool        `json:"infeasible,omitempty"`
	TargetLost   bool        `json:"target_lost,omitempty"`
	Period       float64     `json:"period,omitempty"`
	Throughput   float64     `json:"throughput,omitempty"`
	Delta        float64     `json:"delta,omitempty"`
	TreeSurvives bool        `json:"tree_survives,omitempty"`
	TreePeriod   float64     `json:"tree_period,omitempty"`
	Error        string      `json:"error,omitempty"`

	// Summary fields.
	Errors            int            `json:"errors,omitempty"`
	TreeSurviving     int            `json:"tree_surviving,omitempty"`
	FastPathScenarios int            `json:"fast_path_scenarios,omitempty"`
	CriticalNodes     []WhatifRanked `json:"critical_nodes,omitempty"`
	CriticalEdges     []WhatifRanked `json:"critical_edges,omitempty"`
}

// WhatifRanked is one entry of the summary's criticality rankings.
type WhatifRanked struct {
	Node       string      `json:"node,omitempty"`
	Edge       *WhatifEdge `json:"edge,omitempty"`
	Delta      float64     `json:"delta"`
	Infeasible bool        `json:"infeasible,omitempty"`
}

// WhatifStats is the what-if section of GET /v1/stats.
type WhatifStats struct {
	Requests  int64 `json:"requests"`
	Scenarios int64 `json:"scenarios"`
	// FastPathScenarios counts scenarios answered through the tree
	// fast path (e.g. link failures whose disable mask leaves a tree).
	FastPathScenarios int64 `json:"fast_path_scenarios"`
	// DominatedScenarios counts scenarios answered from the baseline
	// optimum without a solve (the failure of a link or relay that
	// carries no load in it; see whatif.Eval).
	DominatedScenarios int64             `json:"dominated_scenarios"`
	Solver             steady.SolveStats `json:"solver"`
}

// summaryRankCap bounds the summary's criticality rankings: the
// per-scenario lines already carry every delta, the summary is the
// headline.
const summaryRankCap = 16

// whatifConfig resolves the wire-level scenario family against the
// platform.
func whatifConfig(g *graph.Graph, req *WhatifRequest) (whatif.Config, error) {
	cfg := whatif.Config{
		NodeFailures: req.NodeFailures == nil || *req.NodeFailures,
		EdgeFactors:  req.EdgeFactors,
	}
	if req.EdgeFactors == nil {
		cfg.EdgeFactors = []float64{0}
	}
	if err := whatif.CheckEdgeFactors(cfg.EdgeFactors); err != nil {
		return cfg, badRequest("%v", err)
	}
	if req.FailNodes != nil {
		cfg.FailNodes = make([]graph.NodeID, len(req.FailNodes))
		for i, name := range req.FailNodes {
			id, ok := g.NodeByName(name)
			if !ok {
				return cfg, badRequest("unknown fail node %q", name)
			}
			cfg.FailNodes[i] = id
		}
	}
	if req.Sources == nil {
		cfg.AllSources = true
	} else {
		cfg.PromoteSources = make([]graph.NodeID, len(req.Sources))
		for i, name := range req.Sources {
			id, ok := g.NodeByName(name)
			if !ok {
				return cfg, badRequest("unknown promotion candidate %q", name)
			}
			cfg.PromoteSources[i] = id
		}
	}
	return cfg, nil
}

func whatifEdge(g *graph.Graph, id int) *WhatifEdge {
	e := g.Edge(id)
	return &WhatifEdge{ID: id, From: g.Name(e.From), To: g.Name(e.To)}
}

// whatifBaselineLine renders the first NDJSON line.
func whatifBaselineLine(id string, fp uint64, base *whatif.Baseline, scenarios int) WhatifLine {
	g := base.Problem.G
	return WhatifLine{
		Kind:              "baseline",
		PlatformID:        id,
		Fingerprint:       fmt.Sprintf("%016x", fp),
		Source:            g.Name(base.Problem.Source),
		Targets:           nodeNames(g, base.Problem.Targets),
		Scenarios:         scenarios,
		LBPeriod:          base.LB.Period,
		MultiSourcePeriod: base.MultiSource.Period,
		TreeSurvives:      base.Tree != nil,
		TreePeriod:        base.TreePeriod,
	}
}

// whatifScenarioLine renders one scenario result.
func whatifScenarioLine(g *graph.Graph, r whatif.Result) WhatifLine {
	line := WhatifLine{
		Kind:         string(r.Kind),
		Infeasible:   r.Infeasible,
		TargetLost:   r.TargetLost,
		Period:       r.Period,
		Throughput:   r.Throughput,
		Delta:        r.Delta,
		TreeSurvives: r.TreeSurvives,
		TreePeriod:   r.TreePeriod,
	}
	switch r.Kind {
	case whatif.KindNodeFailure, whatif.KindPromoteSource:
		line.Node = g.Name(r.Node)
	case whatif.KindEdgeFailure:
		line.Edge = whatifEdge(g, r.Edge)
	case whatif.KindEdgeDegrade:
		line.Edge = whatifEdge(g, r.Edge)
		line.Factor = r.Factor
	}
	if r.Err != nil {
		line.Error = r.Err.Error()
	}
	return line
}

// whatifSummaryLine renders the final NDJSON line from the assembled
// report.
func whatifSummaryLine(g *graph.Graph, rep *whatif.Report) WhatifLine {
	line := WhatifLine{
		Kind:              "summary",
		Scenarios:         len(rep.Results),
		TreeSurviving:     rep.Surviving,
		FastPathScenarios: rep.FastPathScenarios,
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			line.Errors++
		}
	}
	for _, rk := range rep.CriticalNodes {
		if len(line.CriticalNodes) == summaryRankCap {
			break
		}
		line.CriticalNodes = append(line.CriticalNodes, WhatifRanked{
			Node: g.Name(rk.Node), Delta: rk.Delta, Infeasible: rk.Infeasible,
		})
	}
	for _, rk := range rep.CriticalEdges {
		if len(line.CriticalEdges) == summaryRankCap {
			break
		}
		line.CriticalEdges = append(line.CriticalEdges, WhatifRanked{
			Edge: whatifEdge(g, rk.Edge), Delta: rk.Delta, Infeasible: rk.Infeasible,
		})
	}
	return line
}

// handleWhatif is POST /v1/whatif: baseline on the routed shard, then
// the scenario family fanned out over the shard lanes (whatif.Stream),
// streamed as NDJSON in the deterministic enumeration order
// (results are emitted as soon as they and all their predecessors are
// done), with a final summary line.
func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	var req WhatifRequest
	if err := decodeBody(w, r, 2*s.cfg.maxPlatformBytes()+(1<<16), &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Bounds != nil || req.Heuristics != nil {
		writeError(w, badRequest("bounds and heuristics subsets are not valid for what-if requests"))
		return
	}
	res, err := s.resolve(&req.PlanSpec)
	if err != nil {
		writeError(w, err)
		return
	}
	cfg, err := whatifConfig(res.g, &req)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMillis)
	defer cancel()
	// One admission slot covers the baseline and the whole scenario
	// fan-out (per-scenario admission would deadlock the shard lanes
	// this request already occupies).
	if s.limit != nil {
		if err := s.limit.acquire(ctx); err != nil {
			s.countDeadline(err)
			writeError(w, err)
			return
		}
		defer s.limit.release()
	}
	p := res.p
	var base *whatif.Baseline
	if err := faultinject.SolveEnter(ctx); err != nil {
		s.countDeadline(err)
		writeError(w, err)
		return
	}
	startShard := s.pool.route(res.key())
	if err := s.pool.runOnEv(startShard, func(ev *steady.Evaluator) (err error) {
		defer disarmPanic(&err)
		defer armStop(ctx, ev)()
		base, err = whatif.NewBaseline(ev, p)
		return err
	}); err != nil {
		err = ctxSolveErr(ctx, err)
		s.countDeadline(err)
		writeError(w, err)
		return
	}
	scenarios := whatif.Enumerate(res.g, res.source, cfg)

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(line WhatifLine) {
		enc.Encode(line) //nolint:errcheck // client gone: keep draining, nothing to report
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(whatifBaselineLine(res.id, res.fp, base, len(scenarios)))

	// Fan the scenarios over the shard lanes, starting at the shard the
	// baseline routed to. The streamed bytes cannot depend on scheduling
	// (see whatif.Stream). If the client hangs up or the budget expires
	// mid-stream, the remaining scenarios drain as errors instead of
	// solving, so a dead request does not hold the shard lanes against
	// live plan traffic (cancellation never changes the bytes of a body
	// that is actually delivered — a canceled request has no reader).
	cfg.Workers = len(s.pool.shards)
	onLane := func(worker int, loop func()) {
		s.pool.runOn((startShard+worker)%len(s.pool.shards), loop)
	}
	results, scenStats, fastScen := whatif.Stream(ctx, base, scenarios, cfg, onLane, func(r whatif.Result) {
		emit(whatifScenarioLine(res.g, r))
	})

	rep := whatif.BuildReport(base, scenarios, results)
	rep.FastPathScenarios = fastScen
	emit(whatifSummaryLine(res.g, rep))

	s.mu.Lock()
	s.whatif.Requests++
	s.whatif.Scenarios += int64(len(scenarios))
	s.whatif.FastPathScenarios += int64(fastScen)
	s.whatif.DominatedScenarios += int64(rep.DominatedScenarios)
	s.whatif.Solver.Add(scenStats)
	s.mu.Unlock()
}
