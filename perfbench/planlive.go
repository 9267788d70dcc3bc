package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/mcastclient"
	"repro/internal/serve"
	"repro/internal/steady"
)

// plan-live: one op is a change-and-replan cycle on a live Tiers-small
// platform — PATCH one scale_edge_cost op, wait for the subscriber on
// spec 0 to receive that version's plan, then POST /v1/plan:batch for
// the platform's 8 hot specs. Cycle c scales edge liveEdges[(c/2)%8]
// by 2 when c is even and by 0.5 when it is odd, so the platform
// returns to its uploaded costs every second cycle (×2×0.5 is exact)
// and a pass of 16 cycles visits 9 distinct graphs. Waiting for the
// subscriber before the batch makes the work of a cycle fixed: the
// replan loop computes spec 0 and caches it, the batch then hits spec
// 0 and misses the other 7.
//
// As in whatif, the spec pool is fixed (livePoolSeed) because a cycle
// is 8 plan computations and pools drawn from --seed moved a cycle by
// ±5%; --seed draws the patched edges.
const (
	livePoolSeed = 1
	liveSpecs    = 8
	liveEdges    = 8
	liveTailPct  = 95
	// liveWait bounds the wait for a version's subscriber line.
	liveWait = 30 * time.Second
)

type subLine struct {
	version int64
	plan    []byte
	err     *serve.ErrorBody
	at      time.Time
}

type liveState struct {
	d      *daemon
	sub    *mcastclient.Subscription
	cancel context.CancelFunc
	lines  chan subLine
	done   chan struct{} // closed when the subscription reader returned
	cycle  int
}

// close stops the subscription reader, waits for it, then closes
// the daemon.
func (st *liveState) close() {
	st.cancel()
	st.sub.Close() //nolint:errcheck // read side only
	<-st.done
	st.d.close()
}

// liveGraphs returns the 9 graphs a pass visits: state 0 is the
// uploaded graph, state k+1 has edge edges[k] doubled.
func liveGraphs(base *graph.Graph, edges []int) ([]*graph.Graph, []string, error) {
	gs := []*graph.Graph{base}
	for _, e := range edges {
		g := base.Clone()
		if _, err := (graph.Delta{graph.ScaleEdgeCostOp(e, 2)}).Apply(g); err != nil {
			return nil, nil, err
		}
		gs = append(gs, g)
	}
	fps := make([]string, len(gs))
	for i, g := range gs {
		fps[i] = fmt.Sprintf("%016x", steady.Fingerprint(g))
	}
	return gs, fps, nil
}

// cycleOp is the PATCH op of cycle c and the state it leads to.
func cycleOp(c int, edges []int) (edge int, factor float64, state int) {
	k := (c / 2) % len(edges)
	if c%2 == 0 {
		return edges[k], 2, k + 1
	}
	return edges[k], 0.5, 0
}

func liveKey(kind string, state, spec int) string {
	return fmt.Sprintf("%s/%d/%d", kind, state, spec)
}

func runPlanLive(cfg config) (*outcome, error) {
	pfs, err := servePlatforms(1)
	if err != nil {
		return nil, err
	}
	pf := pfs[0]
	specs := drawSpecs(pf, livePoolSeed, 200, liveSpecs)
	edges := exp.NewRNG(cfg.seed, 250).Perm(pf.g.NumEdges())[:liveEdges]
	graphs, fps, err := liveGraphs(pf.g, edges)
	if err != nil {
		return nil, err
	}
	batch := &serve.BatchRequest{PlanSpec: serve.PlanSpec{PlatformID: pf.id, Source: pf.source, Bounds: planBounds, Heuristics: planHeuristics}}
	for _, s := range specs {
		batch.Items = append(batch.Items, serve.BatchItem{PlanSpec: serve.PlanSpec{Targets: s.targets}})
	}
	bodies := newLedger()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	o := &outcome{spans: tr}

	// runBatch posts the batch and checks it against state; it returns
	// the time to the first line.
	runBatch := func(ctx context.Context, d *daemon, state int, counted bool) (time.Duration, error) {
		t0 := time.Now()
		var first time.Duration
		n := 0
		err := d.client.PlanBatch(ctx, batch, func(line serve.BatchLine) error {
			if n == 0 {
				first = time.Since(t0)
			}
			defer func() { n++ }()
			if n == liveSpecs {
				if line.Kind != "summary" || line.Items != liveSpecs || line.ErrorCount != 0 {
					return fmt.Errorf("bad summary line %+v", line)
				}
				return nil
			}
			if line.Kind != "plan" || line.Index != n || line.Error != nil || line.Plan == nil {
				return fmt.Errorf("bad plan line %d: %+v", n, line)
			}
			raw, err := json.Marshal(line.Plan)
			if err != nil {
				return err
			}
			if !bodies.observe(liveKey("batch", state, n), raw, counted) {
				return fmt.Errorf("item %d of state %d differs from an earlier answer", n, state)
			}
			return nil
		})
		if err == nil && n != liveSpecs+1 {
			err = fmt.Errorf("batch stream ended after %d lines", n)
		}
		return first, err
	}

	setup := func() (*liveState, error) {
		d, err := startDaemon(tr)
		if err != nil {
			return nil, err
		}
		if err := d.upload(pf); err != nil {
			d.close()
			return nil, err
		}
		if _, err := runBatch(context.Background(), d, 0, false); err != nil {
			d.close()
			return nil, fmt.Errorf("warming the hot specs: %w", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sub, err := d.client.Subscribe(ctx, pf.id, mcastclient.SubscribeSpec{
			Source: pf.source, Targets: specs[0].targets, Bounds: planBounds, Heuristics: planHeuristics,
		})
		if err != nil {
			cancel()
			d.close()
			return nil, err
		}
		// The client loop reads one line per cycle and waits for it, so
		// the reader is never more than a line or two ahead.
		st := &liveState{d: d, sub: sub, cancel: cancel, lines: make(chan subLine, 4), done: make(chan struct{})}
		go func() {
			defer close(st.done)
			for {
				line, err := sub.Next()
				if err != nil {
					return
				}
				select {
				case st.lines <- subLine{version: line.Version, plan: line.Plan, err: line.Error, at: time.Now()}:
				case <-ctx.Done():
					return
				}
			}
		}()
		if _, err := st.await(1, 0, false, bodies); err != nil {
			st.close()
			return nil, fmt.Errorf("first subscriber line: %w", err)
		}
		return st, nil
	}
	st, setupTimes, err := repeatSetup(setup, (*liveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	var (
		// replan holds the untraced phase's replan times, in storage
		// allocated before it starts (see latencyHist).
		replan                 = new(latencyHist)
		firstLines, applyTimes []time.Duration
		traced                 bool
		nextOp                 int64
	)
	cycle := func(_, _ int) bool {
		c := st.cycle
		st.cycle++
		edge, factor, state := cycleOp(c, edges)
		ctx := context.Background()
		var root *active
		if traced {
			nextOp++
			root = tr.begin("client.cycle", 0, nextOp)
		}
		call := func(name string) (context.Context, func()) {
			if !traced {
				return ctx, func() {}
			}
			sp := tr.begin(name, root.s.ID, nextOp)
			return opContext(ctx, nextOp, sp.s.ID), func() { sp.end() }
		}
		defer func() {
			if root != nil {
				root.end()
			}
		}()

		pctx, pend := call("client.patch")
		t0 := time.Now()
		resp, err := st.d.client.PatchPlatform(pctx, pf.id, &serve.PatchRequest{Ops: []serve.PatchOp{{Op: "scale_edge_cost", Edge: &edge, Factor: factor}}})
		pend()
		if err != nil {
			o.note("cycle %d: PATCH: %v", c, err)
			return false
		}
		if resp.Fingerprint != fps[state] {
			o.note("cycle %d: PATCH fingerprint %s, want %s", c, resp.Fingerprint, fps[state])
			return false
		}
		at, err := st.await(resp.Version, state, true, bodies)
		if err != nil {
			o.note("cycle %d: subscriber: %v", c, err)
			return false
		}
		bctx, bend := call("client.batch")
		first, err := runBatch(bctx, st.d, state, true)
		bend()
		if err != nil {
			o.note("cycle %d: batch: %v", c, err)
			return false
		}
		if traced {
			firstLines = append(firstLines, first)
		} else {
			replan.record(at.Sub(t0))
		}
		return true
	}

	one := func(int) int { return 2 * liveEdges }
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	phA, winA, att, bad, err := st.d.measuredPhase(budget, 1, cfg.trace, one, cycle)
	if err != nil {
		return nil, err
	}
	o.attempted += att
	o.failed += bad

	var phB *phase
	if cfg.trace {
		traced = true
		tracedFrom := st.cycle
		if phB, _, att, bad, err = st.d.measuredPhase(budget, 1, false, one, cycle); err != nil {
			return nil, err
		}
		o.attempted += att
		o.failed += bad
		// Each traced cycle's delta, applied to a clone of the graph it
		// patched.
		for c := tracedFrom; c < st.cycle; c++ {
			edge, factor, _ := cycleOp(c, edges)
			g := graphs[stateBefore(c, edges)].Clone()
			t0 := time.Now()
			_, err := (graph.Delta{graph.ScaleEdgeCostOp(edge, factor)}).Apply(g)
			applyTimes = append(applyTimes, time.Since(t0))
			if err != nil {
				o.checkAfter("cycle %d: Delta.Apply replay: %v", c, err)
			}
		}
	}

	// References after the timed window: the library sequence on a
	// fresh evaluator for every (graph, spec) the run answered.
	refs := map[[2]int][]byte{}
	bodies.verify(o, func(key string) ([]byte, error) {
		parts := strings.Split(key, "/")
		state, _ := strconv.Atoi(parts[1])
		k, _ := strconv.Atoi(parts[2])
		if b, ok := refs[[2]int{state, k}]; ok {
			return b, nil
		}
		var sp *active
		if tr != nil {
			sp = tr.begin("steady.plan", 0, 0)
		}
		resp, stats, err := referencePlan(pf.id, graphs[state], pf.source, specs[k].targets, planBounds, planHeuristics)
		if sp != nil {
			sp.endStats(&stats)
		}
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(resp)
		refs[[2]int{state, k}] = b
		return b, err
	})

	if !cfg.trace {
		endToEnd(o, setupTimes, phA, liveTailPct, replan)
		return o, nil
	}
	ops := float64(phA.ops())
	var lib steady.SolveStats
	for _, s := range tr.named("steady.plan") {
		lib.Add(*s.Stats)
	}
	lm := layerMetrics{
		"steady.plan_ms":            ms(median(tr.durations("steady.plan"))),
		"serve.patch_ms":            ms(median(tr.durations("client.patch"))),
		"serve.batch_first_line_ms": ms(median(firstLines)),
		"graph.delta_apply_us":      us(median(applyTimes)),
		"live.delivered_frac":       ratio(float64(winA.b.Live.Updates-winA.a.Live.Updates), float64(winA.b.Live.Patches-winA.a.Live.Patches)),
	}
	serveLayers(lm, winA, ops)
	solverLayers(lm, winA.solverWork(), ops, 0)
	lm["lp.us_per_iter"] = ratio(us(tr.total("steady.plan")), float64(lib.Iterations+lib.DualIters))
	goLayers(lm, phA, phB)
	o.values = lm
	return o, nil
}

// stateBefore is the state cycle c patches: the uploaded graph before
// an even cycle, the doubled edge before an odd one.
func stateBefore(c int, edges []int) int {
	if c%2 == 0 {
		return 0
	}
	return (c/2)%len(edges) + 1
}

// await reads subscriber lines until version v arrives and checks its
// plan against state; it returns the arrival time.
func (st *liveState) await(v int64, state int, counted bool, bodies *ledger) (time.Time, error) {
	timeout := time.NewTimer(liveWait)
	defer timeout.Stop()
	for {
		select {
		case line, ok := <-st.lines:
			if !ok {
				return time.Time{}, fmt.Errorf("stream ended before version %d", v)
			}
			switch {
			case line.version < v:
				continue
			case line.version > v:
				return time.Time{}, fmt.Errorf("got version %d, waiting for %d", line.version, v)
			case line.err != nil:
				return time.Time{}, fmt.Errorf("version %d: %s", v, line.err.Message)
			}
			if !bodies.observe(liveKey("sub", state, 0), line.plan, counted) {
				return time.Time{}, fmt.Errorf("version %d plan differs from an earlier answer", v)
			}
			return line.at, nil
		case <-timeout.C:
			return time.Time{}, fmt.Errorf("no line for version %d within %v", v, liveWait)
		}
	}
}
