package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/mcastclient"
	"repro/internal/serve"
	"repro/internal/steady"
	"repro/internal/tiers"
)

// servePlatformSeed fixes the Tiers-small platforms of the serving
// workloads; --seed draws the target sets, the op order and the
// patched edges on them (see METRICS.md for why the platforms are
// fixed).
const servePlatformSeed = 101

// opHeader carries "<op>/<parent span>" from a traced client call to
// the handler wrapper, so both spans share the op. The daemon ignores
// the header; it never reaches a response body.
const opHeader = "X-Perfbench-Span"

// daemon is an in-process serve.New planning daemon, with default
// shards and limits, on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	hc     *http.Client
	client *mcastclient.Client
	base   string
}

// startDaemon starts a daemon. With tr non-nil every request runs
// through a handler wrapper that records a span around
// Server.ServeHTTP, and client calls made with opContext carry their
// op to it.
func startDaemon(tr *tracer) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(serve.Config{}), served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	var h http.Handler = d.srv
	var rt http.RoundTripper = &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	if tr != nil {
		h = spanHandler{srv: d.srv, tr: tr}
		rt = opTransport{base: rt}
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 30 * time.Second}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed after close
	}()
	d.hc = &http.Client{Transport: rt}
	d.client = mcastclient.New(d.base, d.hc)
	return d, nil
}

// close drains the daemon (subscriptions get their final line), shuts
// the listener down and waits for the serve loop to return.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	d.hs.Shutdown(ctx) //nolint:errcheck // the serve loop is awaited below either way
	<-d.served
	d.hc.CloseIdleConnections()
}

type spanHandler struct {
	srv *serve.Server
	tr  *tracer
}

// ServeHTTP records a span for requests of traced ops only; set-up,
// stats reads and the untraced half pass straight through.
func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v := r.Header.Get(opHeader)
	if v == "" {
		h.srv.ServeHTTP(w, r)
		return
	}
	a, b, _ := strings.Cut(v, "/")
	op, _ := strconv.ParseInt(a, 10, 64)
	parent, _ := strconv.ParseInt(b, 10, 64)
	sp := h.tr.begin("serve.handler", parent, op)
	h.srv.ServeHTTP(w, r)
	sp.end()
}

type opKey struct{}

// opContext tags a client call with its op and client span.
func opContext(ctx context.Context, op, spanID int64) context.Context {
	return context.WithValue(ctx, opKey{}, fmt.Sprintf("%d/%d", op, spanID))
}

type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if v, ok := r.Context().Value(opKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, v)
	}
	return t.base.RoundTrip(r)
}

// servePlatform is one generated platform as uploaded: its text, the
// graph the daemon decodes from it, and the names plans refer to.
type servePlatform struct {
	id     string
	text   string
	g      *graph.Graph
	gen    *tiers.Platform
	source string
}

func servePlatforms(n int) ([]*servePlatform, error) {
	var out []*servePlatform
	for i := 0; i < n; i++ {
		pl, err := tiers.Generate(tiers.Small(servePlatformSeed + int64(i)))
		if err != nil {
			return nil, err
		}
		text := pl.G.String()
		g, err := graph.Decode(strings.NewReader(text))
		if err != nil {
			return nil, err
		}
		out = append(out, &servePlatform{
			id:     fmt.Sprintf("tiers-small-%d", i),
			text:   text,
			g:      g,
			gen:    pl,
			source: pl.G.Name(pl.Source),
		})
	}
	return out, nil
}

func (d *daemon) upload(pf *servePlatform) error {
	_, err := d.client.UploadPlatform(context.Background(), &serve.UploadRequest{ID: pf.id, Platform: pf.text, Source: pf.source})
	return err
}

// spec is one plan or what-if request: a target set on a platform.
type spec struct {
	pf      *servePlatform
	targets []string
}

// drawSpecs draws n specs on pf from (seed, stream, spec index). Spec
// i has the i-th of the Figure 11 densities (exp.DefaultDensities),
// cyclically, so every pool has the same mix of target-set sizes and
// --seed only moves which hosts they hold.
func drawSpecs(pf *servePlatform, seed int64, stream, n int) []spec {
	densities := exp.DefaultDensities()
	out := make([]spec, n)
	for i := range out {
		rng := exp.NewRNG(seed, stream, i)
		ids := pf.gen.RandomTargets(rng, densities[i%len(densities)])
		names := make([]string, len(ids))
		for j, id := range ids {
			names[j] = pf.gen.G.Name(id)
		}
		out[i] = spec{pf: pf, targets: names}
	}
	return out
}

// The plan workloads ask for the scatter and lower bounds plus MCPH,
// so every response carries a multicast tree.
var (
	planBounds     = []string{serve.BoundScatter, serve.BoundLB}
	planHeuristics = []string{"MCPH"}
)

func (s spec) planSpec() serve.PlanSpec {
	return serve.PlanSpec{PlatformID: s.pf.id, Source: s.pf.source, Targets: s.targets, Bounds: planBounds, Heuristics: planHeuristics}
}

// referencePlan is the library call sequence the daemon's answers must
// equal byte for byte (DESIGN.md §9.3): the requested bounds in
// canonical order, then the requested heuristics in registry order, on
// one fresh evaluator, for graph g of the platform.
func referencePlan(id string, g *graph.Graph, source string, targets, bounds, heuristics []string) (*serve.PlanResponse, steady.SolveStats, error) {
	ev := steady.NewEvaluator()
	src, ok := g.NodeByName(source)
	if !ok {
		return nil, steady.SolveStats{}, fmt.Errorf("unknown source %q", source)
	}
	tids := make([]graph.NodeID, len(targets))
	for i, name := range targets {
		if tids[i], ok = g.NodeByName(name); !ok {
			return nil, steady.SolveStats{}, fmt.Errorf("unknown target %q", name)
		}
	}
	p, err := steady.NewProblem(g, src, tids)
	if err != nil {
		return nil, steady.SolveStats{}, err
	}
	resp := &serve.PlanResponse{
		PlatformID:  id,
		Fingerprint: fmt.Sprintf("%016x", steady.Fingerprint(g)),
		Source:      source,
		Targets:     targets,
	}
	want := func(list []string, name string) bool {
		for _, n := range list {
			if strings.EqualFold(n, name) {
				return true
			}
		}
		return false
	}
	for _, name := range []string{serve.BoundScatter, serve.BoundLB, serve.BoundBroadcast} {
		if !want(bounds, name) {
			continue
		}
		var b *steady.Bound
		switch name {
		case serve.BoundScatter:
			b, err = ev.ScatterUB(p)
		case serve.BoundLB:
			b, err = ev.MulticastLB(p)
		case serve.BoundBroadcast:
			b, err = ev.BroadcastEB(g, src)
		}
		if err != nil {
			return nil, ev.Stats(), fmt.Errorf("%s: %w", name, err)
		}
		br := serve.BoundResult{Name: name}
		if b.Infeasible() {
			br.Infeasible = true
		} else {
			br.Period, br.Throughput = b.Period, b.Throughput()
		}
		resp.Bounds = append(resp.Bounds, br)
	}
	for _, h := range heur.AllWith(ev) {
		if !want(heuristics, h.Name) {
			continue
		}
		pr := serve.PlanResult{Heuristic: h.Name}
		res, err := h.Run(p)
		switch {
		case err != nil:
			pr.Error = err.Error()
		case res.Throughput() == 0:
			pr.Infeasible = true
		default:
			pr.Period, pr.Throughput = res.Period, res.Throughput()
			pr.Sources = nodeNames(g, res.Sources)
			pr.Kept = nodeNames(g, res.Kept)
			pr.Evals = res.Evals
			if res.Tree != nil {
				edges := append([]int(nil), res.Tree.Edges...)
				sort.Ints(edges)
				for _, id := range edges {
					e := g.Edge(id)
					pr.Tree = append(pr.Tree, serve.PlanEdge{From: g.Name(e.From), To: g.Name(e.To), Cost: e.Cost})
				}
			}
		}
		resp.Plans = append(resp.Plans, pr)
	}
	return resp, ev.Stats(), nil
}

func nodeNames(g *graph.Graph, ids []graph.NodeID) []string {
	if ids == nil {
		return nil
	}
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = g.Name(id)
	}
	return names
}

// indentedJSON encodes v the way the daemon writes a JSON body.
func indentedJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// ledger checks outputs against references computed after the timed
// window: during the run it remembers the first body seen per key and
// fails any later op whose body differs; after the run each key's
// first body is compared with its reference, which fails every op that
// carried it if they differ.
type ledger struct {
	mu    sync.Mutex
	first map[string][]byte
	ops   map[string]int
}

func newLedger() *ledger {
	return &ledger{first: map[string][]byte{}, ops: map[string]int{}}
}

// observe records one op's body; counted reports whether the op is an
// op of the measured phases (set-up responses are checked too).
func (l *ledger) observe(key string, body []byte, counted bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, seen := l.first[key]
	if !seen {
		l.first[key] = append([]byte(nil), body...)
	} else if !bytes.Equal(f, body) {
		return false
	}
	if counted {
		l.ops[key]++
	}
	return true
}

func (l *ledger) keys() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.first))
	for k := range l.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verify compares every key's first body with ref(key) and charges the
// ops that carried a wrong body to o.
func (l *ledger) verify(o *outcome, ref func(key string) ([]byte, error)) {
	for _, k := range l.keys() {
		want, err := ref(k)
		if err != nil {
			o.checkAfter("reference for %s: %v", k, err)
			continue
		}
		l.mu.Lock()
		got, n := l.first[k], l.ops[k]
		l.mu.Unlock()
		if !bytes.Equal(got, want) {
			o.failed += n
			o.checkAfter("%s: body differs from the library reference (%d ops)\n got: %.300s\nwant: %.300s", k, n, got, want)
		}
	}
}

// statsWindow holds /v1/stats read before and after a phase, and the
// largest admission-queue gauge seen from the start of the phase to
// its end.
type statsWindow struct {
	a, b   *serve.StatsResponse
	queued int64
}

// serveLayers fills the serving-layer counters from a phase's
// /v1/stats window; ops is the number of ops the phase completed.
func serveLayers(lm layerMetrics, w statsWindow, ops float64) {
	a, b := w.a, w.b
	hits := float64(b.PlanCache.Hits - a.PlanCache.Hits)
	misses := float64(b.PlanCache.Misses - a.PlanCache.Misses)
	lm["serve.cache_hit_frac"] = ratio(hits, hits+misses)
	lm["serve.cache_dropped"] = ratio(float64(b.PlanCache.Dropped-a.PlanCache.Dropped), ops)
	lm["serve.cache_evicted"] = ratio(float64(b.PlanCache.Evicted-a.PlanCache.Evicted), ops)
	lm["serve.coalesced_frac"] = ratio(float64(b.Coalesced-a.Coalesced), hits+misses)
	var sum, top float64
	for i := range b.ShardServed {
		v := float64(b.ShardServed[i] - a.ShardServed[i])
		sum += v
		top = max(top, v)
	}
	lm["serve.shard_skew"] = ratio(top, sum/float64(len(b.ShardServed)))
	lm["serve.limiter_queued"] = float64(w.queued)
	lm["serve.limiter_shed"] = float64(b.Resilience.Limiter.Shed - a.Resilience.Limiter.Shed)
}

// solverWork is the solver activity of a phase: the shard evaluators
// plus the what-if scenario clones.
func (w statsWindow) solverWork() steady.SolveStats {
	s := w.b.Solver.Delta(w.a.Solver)
	s.Add(w.b.Whatif.Solver.Delta(w.a.Whatif.Solver))
	return s
}

// measuredPhase runs one closed-loop phase between two /v1/stats reads.
// With probe set it also samples the limiter's queue gauge during the
// phase; only the untraced half of a traced run sets it, so neither
// end-to-end runs nor traced halves carry the probe.
func (d *daemon) measuredPhase(budget time.Duration, clients int, probe bool, n func(c int) int, op func(c, i int) bool) (*phase, statsWindow, int, int, error) {
	var w statsWindow
	var err error
	if w.a, err = d.client.Stats(context.Background()); err != nil {
		return nil, w, 0, 0, err
	}
	var qp *queueProbe
	if probe {
		qp = d.probeQueue()
	}
	pc := startPhase(budget)
	att, bad := closedLoop(pc, budget, clients, n, op)
	ph := pc.finish()
	if qp != nil {
		if w.queued, err = qp.finish(); err != nil {
			return nil, w, 0, 0, err
		}
	}
	if w.b, err = d.client.Stats(context.Background()); err != nil {
		return nil, w, 0, 0, err
	}
	w.queued = max(w.queued, w.a.Resilience.Limiter.Queued, w.b.Resilience.Limiter.Queued)
	return ph, w, att, bad, nil
}

// queueProbeEvery is the sampling interval of the limiter's queue gauge.
const queueProbeEvery = 100 * time.Millisecond

// queueProbe samples the admission limiter's queue gauge, a current
// value that the reads around a phase, with no request in flight,
// always see at 0. It reads /v1/stats through the server's handler in
// process, so it opens no connection beside the clients'.
type queueProbe struct {
	stop, done chan struct{}
	max        int64
	err        error
}

func (d *daemon) probeQueue() *queueProbe {
	p := &queueProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(queueProbeEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			rec := httptest.NewRecorder()
			d.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
			var s serve.StatsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
				p.err = fmt.Errorf("probing /v1/stats: status %d: %w", rec.Code, err)
				return
			}
			p.max = max(p.max, s.Resilience.Limiter.Queued)
		}
	}()
	return p
}

// finish stops the probe, waits for it and returns the largest gauge.
func (p *queueProbe) finish() (int64, error) {
	close(p.stop)
	<-p.done
	return p.max, p.err
}
