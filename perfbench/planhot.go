package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/exp"
	"repro/internal/serve"
)

// plan-hot: POST /v1/plan for a pool of 16 specs on each of two
// Tiers-small platforms, from 2 closed-loop clients. Set-up warms
// every spec, so every measured op is a plan-cache hit and only the
// serving front end works.
const (
	hotSpecsPerPlatform = 16
	hotClients          = 2
	hotTailPct          = 99
)

func hotKey(i int) string { return "plan/" + strconv.Itoa(i) }

func runPlanHot(cfg config) (*outcome, error) {
	pfs, err := servePlatforms(2)
	if err != nil {
		return nil, err
	}
	var specs []spec
	for i, pf := range pfs {
		specs = append(specs, drawSpecs(pf, cfg.seed, 100+i, hotSpecsPerPlatform)...)
	}
	reqs := make([]*serve.PlanRequest, len(specs))
	for i, s := range specs {
		reqs[i] = &serve.PlanRequest{PlanSpec: s.planSpec()}
	}
	lists := make([][]int, hotClients) // per client: its op list, as spec indices
	for c := range lists {
		lists[c] = exp.NewRNG(cfg.seed, 150, c).Perm(len(specs))
	}
	bodies := newLedger()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
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
		for i, req := range reqs {
			body, _, err := d.client.PlanRaw(context.Background(), req)
			if err != nil {
				d.close()
				return nil, fmt.Errorf("warming spec %d: %w", i, err)
			}
			if !bodies.observe(hotKey(i), body, false) {
				d.close()
				return nil, fmt.Errorf("warming spec %d: body differs from an earlier set-up", i)
			}
		}
		return d, nil
	}
	d, setupTimes, err := repeatSetup(setup, (*daemon).close)
	if err != nil {
		return nil, err
	}
	defer d.close()

	o := &outcome{spans: tr}
	n := func(int) int { return len(specs) }
	plain := func(c, i int) bool {
		k := lists[c][i]
		body, _, err := d.client.PlanRaw(context.Background(), reqs[k])
		return err == nil && bodies.observe(hotKey(k), body, true)
	}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	phA, winA, att, bad, err := d.measuredPhase(budget, hotClients, cfg.trace, n, plain)
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = att, bad

	var (
		phB  *phase
		lm   = layerMetrics{}
		done []int // spec index of every traced op, in completion order
	)
	if cfg.trace {
		var (
			nextOp atomic.Int64
			mu     sync.Mutex
		)
		traced := func(c, i int) bool {
			k := lists[c][i]
			op := nextOp.Add(1)
			sp := tr.begin("client.plan", 0, op)
			body, _, err := d.client.PlanRaw(opContext(context.Background(), op, sp.s.ID), reqs[k])
			sp.end()
			mu.Lock()
			done = append(done, k)
			mu.Unlock()
			return err == nil && bodies.observe(hotKey(k), body, true)
		}
		phB, _, att, bad, err = d.measuredPhase(budget, hotClients, false, n, traced)
		if err != nil {
			return nil, err
		}
		o.attempted += att
		o.failed += bad
		// The same requests through Server.Plan: the serving stack
		// without HTTP or the JSON codec.
		for _, k := range done {
			req := *reqs[k]
			sp := tr.begin("serve.stack", 0, 0)
			_, _, _, err := d.srv.Plan(&req)
			sp.end()
			if err != nil {
				o.checkAfter("Server.Plan replay of spec %d: %v", k, err)
			}
		}
	}

	// References after the timed window.
	bodies.verify(o, func(key string) ([]byte, error) {
		k, err := strconv.Atoi(key[len("plan/"):])
		if err != nil {
			return nil, err
		}
		s := specs[k]
		resp, _, err := referencePlan(s.pf.id, s.pf.g, s.pf.source, s.targets, planBounds, planHeuristics)
		if err != nil {
			return nil, err
		}
		return indentedJSON(resp)
	})

	if !cfg.trace {
		endToEnd(o, setupTimes, phA, hotTailPct, nil)
		return o, nil
	}
	client := median(tr.durations("client.plan"))
	handler := median(tr.durations("serve.handler"))
	stack := median(tr.durations("serve.stack"))
	lm["serve.handler_ms"] = ms(handler)
	lm["serve.stack_ms"] = ms(stack)
	lm["serve.net_share"] = ratio(float64(client-handler), float64(client))
	lm["serve.codec_share"] = ratio(float64(handler-stack), float64(client))
	ops := float64(phA.ops())
	serveLayers(lm, winA, ops)
	solverLayers(lm, winA.solverWork(), ops, 0)
	goLayers(lm, phA, phB)
	o.values = lm
	return o, nil
}
