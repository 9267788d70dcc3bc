package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/steady"
)

// Response headers carrying serving metadata. They live in headers —
// not the body — so plan bodies stay byte-comparable across cache
// hits, coalesced followers and fresh computations.
const (
	// HeaderCache reports how the plan was served: "hit" (plan cache),
	// "coalesced" (follower of an identical in-flight request) or
	// "miss" (computed by a shard for this request).
	HeaderCache = "X-Mcastd-Cache"
	// HeaderShard is the index of the shard that computed the plan
	// (set only when this request executed, i.e. HeaderCache: miss).
	HeaderShard = "X-Mcastd-Shard"
	// HeaderVersion is the platform version a response was computed
	// against (registered platforms only). Like the cache/shard headers
	// it stays out of the body, so a version's plan bytes are directly
	// comparable to a cold solve of that version's snapshot.
	HeaderVersion = "X-Mcastd-Version"
	// HeaderDegraded marks a response answered by a degraded fallback
	// under saturation instead of a full shard compute: "cache" (the
	// exact requested plan, from the plan cache) or "tree" (a
	// bounds-only answer computed combinatorially on a tree platform,
	// skipping the requested heuristics). Absent on every non-degraded
	// response — whose bodies therefore stay byte-identical to a serial
	// cold solve.
	HeaderDegraded = "X-Mcastd-Degraded"
)

// UploadRequest is the body of POST /v1/platforms.
type UploadRequest struct {
	// ID names the platform; empty derives the content-addressed
	// "pf-<fingerprint>". Re-uploading an ID replaces its content and
	// invalidates the old content's cached plans.
	ID string `json:"id,omitempty"`
	// Platform is the platform description in the graph text format
	// (node/edge/link lines).
	Platform string `json:"platform"`
	// Source optionally declares a default source node for plan
	// requests that omit one.
	Source string `json:"source,omitempty"`
}

// UploadResponse is the body of a successful POST /v1/platforms.
type UploadResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Source      string `json:"source,omitempty"`
	Generation  int    `json:"generation"`
	Version     int64  `json:"version"`
	Replaced    bool   `json:"replaced,omitempty"`
	// Invalidated counts the cached plans of the replaced content that
	// were dropped.
	Invalidated int `json:"invalidated,omitempty"`
}

// PlatformInfo is one entry of GET /v1/platforms.
type PlatformInfo struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Source      string `json:"source,omitempty"`
	Generation  int    `json:"generation"`
	Version     int64  `json:"version"`
}

// EndpointStats summarises one route's traffic for GET /v1/stats.
type EndpointStats struct {
	Count       int64   `json:"count"`
	Errors      int64   `json:"errors"`
	AvgMillis   float64 `json:"avg_ms"`
	MaxMillis   float64 `json:"max_ms"`
	TotalMillis float64 `json:"total_ms"`
}

// StatsResponse is the body of GET /v1/stats: cumulative solver
// activity across all shards plus serving-layer counters.
type StatsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Platforms     int                      `json:"platforms"`
	Shards        int                      `json:"shards"`
	ShardServed   []int64                  `json:"shard_served"`
	Solver        steady.SolveStats        `json:"solver"`
	PlanCache     CacheStats               `json:"plan_cache"`
	Coalesced     int64                    `json:"coalesced"`
	Whatif        WhatifStats              `json:"whatif"`
	Batch         BatchStats               `json:"batch"`
	Jobs          JobStats                 `json:"jobs"`
	Live          LiveStats                `json:"live"`
	Resilience    ResilienceStats          `json:"resilience"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
}

// ResilienceStats is the deadline/shedding/recovery section of
// GET /v1/stats.
type ResilienceStats struct {
	// Limiter reports the admission-control state; zero-valued when
	// admission control is disabled (MaxConcurrent < 0).
	Limiter LimiterStats `json:"limiter"`
	// Deadlines counts requests answered 503/deadline.
	Deadlines int64 `json:"deadlines"`
	// Degraded counts responses answered by a degraded fallback.
	Degraded int64 `json:"degraded"`
	// Panics counts handler panics converted into 500/internal
	// envelopes by the recovery middleware.
	Panics int64 `json:"panics"`
	// Draining reports whether the server is in its shutdown drain.
	Draining bool `json:"draining"`
}

// Server is the planning daemon: an http.Handler wiring the platform
// registry, the plan cache, the coalescer and the evaluator shard
// pool. Construct with New; the zero value is not usable.
type Server struct {
	cfg    Config
	reg    *registry
	pool   *shardPool
	cache  *planCache
	flight *flightGroup
	jobs   *jobStore
	hub    *hub
	mux    *http.ServeMux
	start  time.Time

	// limit is the compute admission gate (nil when MaxConcurrent < 0
	// disabled it). draining flips /readyz unready and is set by Drain.
	limit        *limiter
	draining     atomic.Bool
	deadlineHits atomic.Int64
	degraded     atomic.Int64
	panics       atomic.Int64

	// batchLane rotates the starting lane of batch fan-outs so
	// concurrent batches spread over the pool instead of piling onto
	// lane 0. The lane choice never affects response bytes (every lane's
	// evaluator is Reset before use), only load spreading.
	batchLane atomic.Int64

	// batchItemHook, when set, runs inside every batch item's flight
	// leadership (planResolved with a pinned lane), before the item
	// acquires its shard lane. Tests use it to gate batch compute
	// mid-flight (cancellation and coalescing regressions); nil in
	// production.
	batchItemHook func()

	mu        sync.Mutex
	endpoints map[string]*endpointAccum
	whatif    WhatifStats
	batch     BatchStats
	live      LiveStats
}

type endpointAccum struct {
	count, errors int64
	totalMicros   int64
	maxMicros     int64
}

// New returns a ready-to-serve planning daemon.
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		reg:       newRegistry(cfg.versionHistory(), cfg.mutationLog()),
		pool:      newShardPool(cfg.shards()),
		cache:     newPlanCache(cfg.cacheSize()),
		flight:    newFlightGroup(),
		jobs:      newJobStore(cfg.maxJobs(), cfg.maxJobItems(), cfg.jobTTL()),
		hub:       newHub(),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		endpoints: make(map[string]*endpointAccum),
	}
	if mc := cfg.maxConcurrent(); mc > 0 {
		s.limit = newLimiter(mc, cfg.maxQueue())
	}
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	s.route("POST /v1/platforms", s.handleUpload)
	s.route("GET /v1/platforms", s.handleListPlatforms)
	s.route("GET /v1/platforms/{id}", s.handleGetPlatform)
	s.route("PATCH /v1/platforms/{id}", s.handlePatchPlatform)
	s.route("GET /v1/platforms/{id}/subscribe", s.handleSubscribe)
	s.route("GET /v1/platforms/{id}/log", s.handlePlatformLog)
	s.route("POST /v1/plan", s.handlePlan)
	s.route("POST /v1/plan:batch", s.handleBatch)
	s.route("POST /v1/whatif", s.handleWhatif)
	s.route("POST /v1/jobs", s.handleSubmitJob)
	s.route("GET /v1/jobs", s.handleListJobs)
	s.route("GET /v1/jobs/{id}", s.handleGetJob)
	s.route("GET /v1/jobs/{id}/stream", s.handleStreamJob)
	s.route("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.route("GET /v1/stats", s.handleStats)
	return s
}

// Shards reports the number of evaluator shards.
func (s *Server) Shards() int { return len(s.pool.shards) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route registers a handler wrapped with panic recovery and the
// per-endpoint latency and error accounting surfaced by /v1/stats.
//
// The recovery middleware is what keeps a buggy (or fault-injected)
// handler from taking down the daemon: a panic is converted into the
// 500/internal v1 envelope when the response has not started, or into
// an aborted stream when it has (the client sees a truncated body, the
// next request sees a healthy server). Shard state survives because
// every shard Resets its evaluator per request and every LP solve
// recompiles from scratch — there is no cross-request solver state a
// mid-solve panic could poison.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				if !sw.wrote {
					writeError(sw, internalError("handler panicked: %v", p))
				}
				// Mid-stream panics cannot be enveloped (the status line is
				// gone); falling through closes the connection, which is the
				// strongest truncation signal HTTP/1.1 has.
			}
			s.observe(pattern, sw.status, time.Since(t0))
		}()
		faultinject.HandlerEnter(pattern)
		h(sw, r)
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
	// wrote reports whether the response has started (explicit
	// WriteHeader or first body Write), i.e. whether the recovery
	// middleware may still write an error envelope.
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so the streaming endpoints
// (subscribe, batch, job streams) keep their incremental delivery
// through the accounting wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) observe(pattern string, status int, d time.Duration) {
	micros := d.Microseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.endpoints[pattern]
	if a == nil {
		a = &endpointAccum{}
		s.endpoints[pattern] = a
	}
	a.count++
	if status >= 400 {
		a.errors++
	}
	a.totalMicros += micros
	if micros > a.maxMicros {
		a.maxMicros = micros
	}
}

// --- helpers ----------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	// Worst-case JSON escaping doubles the platform text (every newline
	// becomes \n), so the wire limit is twice the decoded-text cap that
	// decodePlatform enforces.
	if err := decodeBody(w, r, 2*s.cfg.maxPlatformBytes()+4096, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := validateID(req.ID); err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	g, err := decodePlatform(req.Platform, s.cfg.maxPlatformBytes())
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Source != "" {
		if _, ok := g.NodeByName(req.Source); !ok {
			writeError(w, badRequest("unknown source node %q", req.Source))
			return
		}
	}
	entry, old := s.reg.put(req.ID, g, req.Source)
	resp := UploadResponse{
		ID:          entry.id,
		Fingerprint: entry.fingerprint(),
		Nodes:       entry.nodes,
		Edges:       entry.edges,
		Source:      entry.sourceName,
		Generation:  entry.gen,
		Version:     entry.version,
	}
	if old != nil {
		resp.Replaced = true
		if old.fp != entry.fp {
			// The old content's cached plans are unreachable now that the
			// ID resolves to a new fingerprint; drop them eagerly.
			resp.Invalidated = s.cache.dropIf(func(k planKey) bool {
				return k.id == entry.id && k.fp == old.fp
			})
		}
		// A replacement is a mutation like any other: wake the platform's
		// replan loops so subscribers see the new content.
		s.hub.notifyPlatform(entry.id)
	}
	status := http.StatusCreated
	if old != nil {
		status = http.StatusOK
	}
	w.Header().Set(HeaderVersion, fmt.Sprintf("%d", entry.version))
	writeJSON(w, status, resp)
}

func decodePlatform(text string, limit int64) (*graph.Graph, error) {
	if text == "" {
		return nil, badRequest("empty platform description")
	}
	if int64(len(text)) > limit {
		return nil, badRequest("platform description exceeds %d bytes", limit)
	}
	g, err := graph.Decode(strings.NewReader(text))
	if err != nil {
		return nil, badRequest("bad platform: %v", err)
	}
	if g.NumActive() == 0 {
		return nil, badRequest("platform has no nodes")
	}
	return g, nil
}

func (s *Server) platformInfo(e *platformEntry) PlatformInfo {
	return PlatformInfo{
		ID:          e.id,
		Fingerprint: e.fingerprint(),
		Nodes:       e.nodes,
		Edges:       e.edges,
		Source:      e.sourceName,
		Generation:  e.gen,
		Version:     e.version,
	}
}

func (s *Server) handleListPlatforms(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	out := make([]PlatformInfo, len(entries))
	for i, e := range entries {
		out[i] = s.platformInfo(e)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetPlatform(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, notFound("unknown platform id"))
		return
	}
	writeJSON(w, http.StatusOK, s.platformInfo(e))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	solver, served := s.pool.stats()
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Platforms:     s.reg.len(),
		Shards:        len(s.pool.shards),
		ShardServed:   served,
		Solver:        solver,
		PlanCache:     s.cache.stats(),
		Coalesced:     s.flight.coalescedCount(),
		Endpoints:     make(map[string]EndpointStats),
	}
	resp.Jobs = s.jobs.stats()
	if s.limit != nil {
		resp.Resilience.Limiter = s.limit.stats()
	}
	resp.Resilience.Deadlines = s.deadlineHits.Load()
	resp.Resilience.Degraded = s.degraded.Load()
	resp.Resilience.Panics = s.panics.Load()
	resp.Resilience.Draining = s.draining.Load()
	s.mu.Lock()
	resp.Whatif = s.whatif
	resp.Batch = s.batch
	resp.Live = s.live
	resp.Live.Loops = s.hub.count()
	for pattern, a := range s.endpoints {
		es := EndpointStats{
			Count:       a.count,
			Errors:      a.errors,
			TotalMillis: float64(a.totalMicros) / 1e3,
			MaxMillis:   float64(a.maxMicros) / 1e3,
		}
		if a.count > 0 {
			es.AvgMillis = es.TotalMillis / float64(a.count)
		}
		resp.Endpoints[pattern] = es
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	// Same escaping headroom as uploads: an inline platform's JSON
	// encoding can be up to twice its decoded text.
	if err := decodeBody(w, r, 2*s.cfg.maxPlatformBytes()+(1<<16), &req); err != nil {
		writeError(w, err)
		return
	}
	res, err := s.resolve(&req.PlanSpec)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMillis)
	defer cancel()
	resp, how, shardIdx, err := s.planResolved(ctx, res, -1, req.NoCache, req.Degraded)
	if err != nil {
		s.countDeadline(err)
		writeError(w, err)
		return
	}
	if deg, ok := strings.CutPrefix(how, "degraded-"); ok {
		s.degraded.Add(1)
		w.Header().Set(HeaderDegraded, deg)
		if deg == "cache" {
			how = "hit"
		} else {
			how = "miss"
		}
	}
	w.Header().Set(HeaderCache, how)
	if shardIdx >= 0 {
		w.Header().Set(HeaderShard, fmt.Sprintf("%d", shardIdx))
	}
	if res.version > 0 {
		w.Header().Set(HeaderVersion, fmt.Sprintf("%d", res.version))
	}
	writeJSON(w, http.StatusOK, resp)
}

// requestContext derives a request's compute context: the caller's
// context bounded by the effective timeout (the request's timeout_ms
// clamped to MaxTimeout, else the server default; see Config).
func (s *Server) requestContext(ctx context.Context, timeoutMillis int64) (context.Context, context.CancelFunc) {
	if d := s.cfg.requestTimeout(timeoutMillis); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// countDeadline bumps the 503/deadline counter when err is a deadline
// expiry (handlers call it on their top-level error path).
func (s *Server) countDeadline(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.deadlineHits.Add(1)
	}
}

// Plan resolves and executes one plan request through the full serving
// stack (registry, cache, coalescer, shard pool). It returns the
// response, how it was served ("hit", "coalesced" or "miss") and the
// executing shard index (-1 unless this call computed the plan).
// It is the library entry point behind POST /v1/plan; the request's
// TimeoutMillis is honoured (Degraded too), the caller's context is
// the background one.
func (s *Server) Plan(req *PlanRequest) (*PlanResponse, string, int, error) {
	res, err := s.resolve(&req.PlanSpec)
	if err != nil {
		return nil, "", -1, err
	}
	ctx, cancel := s.requestContext(context.Background(), req.TimeoutMillis)
	defer cancel()
	return s.planResolved(ctx, res, -1, req.NoCache, req.Degraded)
}

// planResolved executes an already-resolved spec through the cache,
// coalescer and shard pool — the shared back half of handlePlan, Plan,
// the subscription loops (which resolve per version themselves to
// stamp responses with the version they computed against) and the
// batch items.
//
// lane -1 routes the compute by key hash and takes an admission slot
// for it. A batch worker passes its lane (>= 0) instead: the compute
// is pinned there and takes no admission slot, because the batch
// already holds the one slot covering its whole fan-out, and per-item
// admission would deadlock on the lanes the batch occupies. The lane
// choice never changes a byte (every lane's evaluator is Reset before
// use), only which lane's lock the work queues on.
//
// ctx bounds the compute: its cancellation is armed as the evaluator's
// stop flag while the shard solves, so a deadline stops the simplex
// mid-iteration, not merely between solves. A compute abandoned by
// ctx returns ctx's error (which coalesced followers do not inherit —
// they re-run; see flightGroup.do).
//
// degraded allows the saturation fallbacks when admission is refused:
// answer from the plan cache (the exact requested plan, how
// "degraded-cache"), or — on a tree-classified platform — a
// bounds-only combinatorial answer on a private evaluator, skipping
// the heuristics and the shard pool entirely (how "degraded-tree").
// Degraded answers are never cached and never coalesced: the tree
// fallback's body is NOT the requested plan's body, and must never be
// served to a caller that did not opt in.
func (s *Server) planResolved(ctx context.Context, res *resolved, lane int, noCache, degraded bool) (*PlanResponse, string, int, error) {
	key := res.key()
	// execIdx records the shard this call computed on; it stays -1 for
	// cache hits and coalesced followers (whose leader has its own
	// Plan frame and execIdx).
	execIdx := -1
	compute := func() (resp *PlanResponse, err error) {
		// Guard the whole leadership, hooks included: a panic escaping a
		// flight leader wakes its followers with a nil response AND a nil
		// error, which would serve as an empty 200.
		defer disarmPanic(&err)
		idx := lane
		if idx < 0 {
			if s.limit != nil {
				if err := s.limit.acquire(ctx); err != nil {
					return nil, err
				}
				defer s.limit.release()
			}
			idx = s.pool.route(key)
		} else if hook := s.batchItemHook; hook != nil {
			hook()
		}
		if err := faultinject.SolveEnter(ctx); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.pool.runOnEv(idx, func(ev *steady.Evaluator) (err error) {
			defer disarmPanic(&err)
			defer armStop(ctx, ev)()
			resp, err = executeResolved(ev, res)
			return err
		}); err != nil {
			return nil, ctxSolveErr(ctx, err)
		}
		execIdx = idx
		s.cache.put(key, resp)
		return resp, nil
	}

	resp, how, err := func() (*PlanResponse, string, error) {
		if noCache {
			resp, err := compute()
			return resp, "miss", err
		}
		if resp, ok := s.cache.get(key); ok {
			return resp, "hit", nil
		}
		resp, err, shared := s.flight.do(key, compute)
		if shared {
			how := "coalesced"
			if isSaturated(err) {
				// A follower sharing its leader's saturation verdict was
				// never admitted itself; it may still degrade below.
				how = ""
			}
			return resp, how, err
		}
		return resp, "miss", err
	}()
	if err == nil {
		return resp, how, execIdx, nil
	}
	if degraded && isSaturated(err) {
		if resp, ok := s.cache.get(key); ok {
			return resp, "degraded-cache", -1, nil
		}
		if resp, ok := s.degradedTreePlan(res); ok {
			return resp, "degraded-tree", -1, nil
		}
	}
	return nil, "", -1, err
}

// degradedTreePlan is the saturation fallback for tree platforms: the
// requested bounds computed combinatorially (fastpath) on a private
// evaluator, heuristics skipped. It never runs an LP — non-tree
// platforms return ok=false and the saturation error stands.
func (s *Server) degradedTreePlan(res *resolved) (*PlanResponse, bool) {
	var cl graph.Classifier
	if !cl.Classify(res.g, res.source).IsTree() {
		return nil, false
	}
	resp, err := executePlan(steady.NewEvaluator(), res.g, res.fp, res.source, res.targets, res.bounds, 0)
	if err != nil {
		return nil, false
	}
	resp.PlatformID = res.id
	return resp, true
}
