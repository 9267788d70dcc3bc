package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/steady"
	"repro/internal/whatif"
)

// whatif: one op is a POST /v1/whatif with the default scenario family
// (every node failure, every link failure, every source promotion:
// 126 scenarios on these platforms), for a pool of 16 specs, 8 on each
// of two Tiers-small platforms, from 1 closed-loop client; the daemon
// fans each request over both shard lanes.
//
// One analysis costs 0.03–1.4 s depending on its targets, and a run
// completes only about 32, so a pool drawn from --seed moved ops_per_s
// by ±9% and op_p50_ms by ±17% across seeds (METRICS.md). The pool is
// therefore drawn from whatifPoolSeed, and --seed draws the op order.
// The tail is p66, the highest of p99, p95, p90 and p66 that leaves at
// least 10 of a run's 32 samples beyond it.
const (
	whatifPoolSeed         = 1
	whatifSpecsPerPlatform = 8
	whatifTailPct          = 66
	// whatifReplaySpecs is how many specs the traced run replays
	// through NewBaseline → Run → BuildReport for the phase shares.
	whatifReplaySpecs = 4
)

func whatifKey(i int) string { return "whatif/" + strconv.Itoa(i) }

// postWhatif streams one /v1/whatif response with a reader of its own
// (the typed client has no what-if call) and returns the whole body
// and the time to its first line.
func (d *daemon) postWhatif(ctx context.Context, body []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/whatif", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, msg)
	}
	br := bufio.NewReader(resp.Body)
	var out bytes.Buffer
	var first time.Duration
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && out.Len() == 0 {
			first = time.Since(t0)
		}
		out.Write(line)
		if err == io.EOF {
			return out.Bytes(), first, nil
		}
		if err != nil {
			return nil, 0, err
		}
	}
}

// whatifLines renders a report as the daemon streams it: the baseline
// line, one line per scenario in enumeration order, then the summary.
func whatifLines(id string, g *graph.Graph, rep *whatif.Report) ([]byte, error) {
	const rankCap = 16 // the daemon's summary ranking cap
	base := rep.Baseline
	edge := func(id int) *serve.WhatifEdge {
		e := g.Edge(id)
		return &serve.WhatifEdge{ID: id, From: g.Name(e.From), To: g.Name(e.To)}
	}
	lines := []serve.WhatifLine{{
		Kind:              "baseline",
		PlatformID:        id,
		Fingerprint:       fmt.Sprintf("%016x", steady.Fingerprint(g)),
		Source:            g.Name(base.Problem.Source),
		Targets:           nodeNames(g, base.Problem.Targets),
		Scenarios:         len(rep.Scenarios),
		LBPeriod:          base.LB.Period,
		MultiSourcePeriod: base.MultiSource.Period,
		TreeSurvives:      base.Tree != nil,
		TreePeriod:        base.TreePeriod,
	}}
	summary := serve.WhatifLine{Kind: "summary", Scenarios: len(rep.Results), TreeSurviving: rep.Surviving, FastPathScenarios: rep.FastPathScenarios}
	for _, r := range rep.Results {
		line := serve.WhatifLine{
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
			line.Edge = edge(r.Edge)
		case whatif.KindEdgeDegrade:
			line.Edge = edge(r.Edge)
			line.Factor = r.Factor
		}
		if r.Err != nil {
			line.Error = r.Err.Error()
			summary.Errors++
		}
		lines = append(lines, line)
	}
	for _, rk := range rep.CriticalNodes {
		if len(summary.CriticalNodes) == rankCap {
			break
		}
		summary.CriticalNodes = append(summary.CriticalNodes, serve.WhatifRanked{Node: g.Name(rk.Node), Delta: rk.Delta, Infeasible: rk.Infeasible})
	}
	for _, rk := range rep.CriticalEdges {
		if len(summary.CriticalEdges) == rankCap {
			break
		}
		summary.CriticalEdges = append(summary.CriticalEdges, serve.WhatifRanked{Edge: edge(rk.Edge), Delta: rk.Delta, Infeasible: rk.Infeasible})
	}
	lines = append(lines, summary)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func (s spec) problem() (steady.Problem, error) {
	g := s.pf.g
	src, _ := g.NodeByName(s.pf.source)
	tids := make([]graph.NodeID, len(s.targets))
	for i, name := range s.targets {
		tids[i], _ = g.NodeByName(name)
	}
	return steady.NewProblem(g, src, tids)
}

func runWhatif(cfg config) (*outcome, error) {
	pfs, err := servePlatforms(2)
	if err != nil {
		return nil, err
	}
	var specs []spec
	for i, pf := range pfs {
		specs = append(specs, drawSpecs(pf, whatifPoolSeed, 300+i, whatifSpecsPerPlatform)...)
	}
	order := exp.NewRNG(cfg.seed, 350).Perm(len(specs))
	var reqBodies [][]byte
	for _, s := range specs {
		b, err := json.Marshal(serve.WhatifRequest{PlanSpec: serve.PlanSpec{PlatformID: s.pf.id, Source: s.pf.source, Targets: s.targets}})
		if err != nil {
			return nil, err
		}
		reqBodies = append(reqBodies, b)
	}
	bodies := newLedger()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	o := &outcome{spans: tr}

	setup := func() (*daemon, error) {
		d, err := startDaemon(tr)
		if err != nil {
			return nil, err
		}
		for _, pf := range pfs {
			if err := d.upload(pf); err != nil {
				d.close()
				return nil, err
			}
		}
		// Warm-up: the pool's first spec, whatever the op order.
		const k = 0
		body, _, err := d.postWhatif(context.Background(), reqBodies[k])
		if err != nil || !bodies.observe(whatifKey(k), body, false) {
			d.close()
			return nil, fmt.Errorf("warm-up what-if of spec %d: %v", k, err)
		}
		return d, nil
	}
	d, setupTimes, err := repeatSetup(setup, (*daemon).close)
	if err != nil {
		return nil, err
	}
	defer d.close()

	var (
		traced     bool
		nextOp     int64
		firstLines []time.Duration
	)
	op := func(_, i int) bool {
		k := order[i]
		ctx := context.Background()
		var sp *active
		if traced {
			nextOp++
			sp = tr.begin("client.whatif", 0, nextOp)
			ctx = opContext(ctx, nextOp, sp.s.ID)
		}
		body, first, err := d.postWhatif(ctx, reqBodies[k])
		if sp != nil {
			sp.end()
			firstLines = append(firstLines, first)
		}
		if err != nil {
			o.note("spec %d: %v", k, err)
			return false
		}
		if !bodies.observe(whatifKey(k), body, true) {
			o.note("spec %d: body differs from an earlier answer", k)
			return false
		}
		return true
	}
	n := func(int) int { return len(order) }
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	phA, winA, att, bad, err := d.measuredPhase(budget, 1, cfg.trace, n, op)
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = att, bad
	var phB *phase
	if cfg.trace {
		traced = true
		if phB, _, att, bad, err = d.measuredPhase(budget, 1, false, n, op); err != nil {
			return nil, err
		}
		o.attempted += att
		o.failed += bad
	}

	// References after the timed window: whatif.Analyze per spec.
	bodies.verify(o, func(key string) ([]byte, error) {
		k, err := strconv.Atoi(key[len("whatif/"):])
		if err != nil {
			return nil, err
		}
		p, err := specs[k].problem()
		if err != nil {
			return nil, err
		}
		wc := whatif.DefaultConfig()
		wc.Workers = 2 // the report is bit-identical for any worker count
		rep, err := whatif.Analyze(p, wc)
		if err != nil {
			return nil, err
		}
		return whatifLines(specs[k].pf.id, specs[k].pf.g, rep)
	})

	if !cfg.trace {
		endToEnd(o, setupTimes, phA, whatifTailPct, nil)
		return o, nil
	}

	// The library phases of an analysis, serially, on the first specs
	// of the op list.
	var replay steady.SolveStats
	for j := 0; j < whatifReplaySpecs; j++ {
		p, err := specs[order[j]].problem()
		if err != nil {
			return nil, err
		}
		ev := steady.NewEvaluator()
		wc := whatif.DefaultConfig()
		wc.Workers = 1
		sp := tr.begin("whatif.baseline", 0, 0)
		base, err := whatif.NewBaseline(ev, p)
		sp.end()
		if err != nil {
			return nil, err
		}
		scenarios := whatif.Enumerate(p.G, p.Source, wc)
		sp = tr.begin("whatif.run", 0, 0)
		results, stats, _ := whatif.Run(base, scenarios, wc)
		sp.end()
		sp = tr.begin("whatif.report", 0, 0)
		whatif.BuildReport(base, scenarios, results)
		sp.end()
		replay.Add(ev.Stats())
		replay.Add(stats)
	}
	phases := tr.total("whatif.baseline") + tr.total("whatif.run") + tr.total("whatif.report")
	ops := float64(phA.ops())
	work := winA.solverWork()
	lm := layerMetrics{
		"whatif.first_line_ms":          ms(median(firstLines)),
		"whatif.fastpath_scenario_frac": ratio(float64(winA.b.Whatif.FastPathScenarios-winA.a.Whatif.FastPathScenarios), float64(winA.b.Whatif.Scenarios-winA.a.Whatif.Scenarios)),
		"whatif.simplex_iters":          ratio(float64(work.Iterations+work.DualIters), ops),
	}
	for _, name := range []string{"whatif.baseline", "whatif.run", "whatif.report"} {
		lm[name+".share"] = ratio(tr.total(name).Seconds(), phases.Seconds())
	}
	serveLayers(lm, winA, ops)
	solverLayers(lm, work, ops, 0)
	lm["lp.us_per_iter"] = ratio(us(phases), float64(replay.Iterations+replay.DualIters))
	goLayers(lm, phA, phB)
	o.values = lm
	return o, nil
}
