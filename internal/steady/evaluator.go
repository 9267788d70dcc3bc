package steady

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/tree"
)

// SolveStats aggregates LP-solver and evaluator activity, surfaced all
// the way up through the experiment sweeps (-solvestats).
type SolveStats struct {
	Evaluations  int // bound evaluations requested
	CacheHits    int // evaluations answered from the result cache
	Solves       int // LP solves that ran the simplex
	ColdSolves   int // solves from a cold start (incl. warm fallbacks)
	WarmAttempts int // warm starts attempted
	WarmSolves   int // warm starts that held (no cold fallback)
	Iterations   int // primal simplex pivots
	DualIters    int // dual-simplex cleanup pivots of warm starts
	Factorized   int // sparse LU basis factorisations built
	Refactors    int // mid-solve refactorisations (eta-file overflow or drift)
	Rounds       int // cutting-plane / column-generation rounds
	Cuts         int // cut rows generated by Multicast-LB separation
	PresolveRows int // always 0: the LP has no presolve; perfbench/main.go still reads it

	// The tree fast path (DESIGN.md Section 12): bound evaluations
	// answered combinatorially because the platform classified as a
	// tree, versus evaluations that consulted the classifier and fell
	// back to the LP. Cache hits count as neither — a cached fast-path
	// result is a CacheHit like any other.
	FastPathHits   int
	FastPathMisses int
}

// Delta returns the activity accumulated since an earlier snapshot
// (for per-run attribution on a shared evaluator).
func (s SolveStats) Delta(since SolveStats) SolveStats {
	return SolveStats{
		Evaluations:    s.Evaluations - since.Evaluations,
		CacheHits:      s.CacheHits - since.CacheHits,
		Solves:         s.Solves - since.Solves,
		ColdSolves:     s.ColdSolves - since.ColdSolves,
		WarmAttempts:   s.WarmAttempts - since.WarmAttempts,
		WarmSolves:     s.WarmSolves - since.WarmSolves,
		Iterations:     s.Iterations - since.Iterations,
		DualIters:      s.DualIters - since.DualIters,
		Factorized:     s.Factorized - since.Factorized,
		Refactors:      s.Refactors - since.Refactors,
		Rounds:         s.Rounds - since.Rounds,
		Cuts:           s.Cuts - since.Cuts,
		FastPathHits:   s.FastPathHits - since.FastPathHits,
		FastPathMisses: s.FastPathMisses - since.FastPathMisses,
	}
}

// String renders the stats as the one-line report the -solvestats
// flags print, so every surface shows the same breakdown.
func (s SolveStats) String() string {
	return fmt.Sprintf(
		"%d bound evaluations (%d cache hits, %d tree fast-path, "+
			"%d fast-path misses), %d LP solves "+
			"(%d warm of %d attempted, %d cold), %d simplex iterations "+
			"(%d dual cleanup), %d LU factorizations (%d mid-solve), "+
			"%d cut/column rounds, %d cuts",
		s.Evaluations, s.CacheHits, s.FastPathHits, s.FastPathMisses,
		s.Solves,
		s.WarmSolves, s.WarmAttempts, s.ColdSolves,
		s.Iterations+s.DualIters, s.DualIters,
		s.Factorized, s.Refactors, s.Rounds, s.Cuts)
}

// Add folds o into s (for aggregating per-task stats).
func (s *SolveStats) Add(o SolveStats) {
	s.Evaluations += o.Evaluations
	s.CacheHits += o.CacheHits
	s.Solves += o.Solves
	s.ColdSolves += o.ColdSolves
	s.WarmAttempts += o.WarmAttempts
	s.WarmSolves += o.WarmSolves
	s.Iterations += o.Iterations
	s.DualIters += o.DualIters
	s.Factorized += o.Factorized
	s.Refactors += o.Refactors
	s.Rounds += o.Rounds
	s.Cuts += o.Cuts
	s.FastPathHits += o.FastPathHits
	s.FastPathMisses += o.FastPathMisses
}

// evalKey identifies one bound evaluation: the program, the platform
// content (topology, costs and activity mask), the source and the
// target/extras fingerprint.
type evalKey struct {
	prog   uint8
	graph  uint64
	source graph.NodeID
	aux    uint64
}

const (
	progScatter uint8 = iota + 1
	progLB
	progMultiSource
)

// poolCaps bound the evaluator's memory: beyond them new entries are
// simply not recorded (the pools are a performance aid, never needed
// for correctness).
const (
	cacheCap    = 8192
	cutPoolCap  = 1024
	pathPoolCap = 2048
)

// Evaluator is a caching, warm-starting service for the steady-state
// bound programs. The LP-based heuristics perform long runs of nearly
// identical evaluations — drop one node and re-broadcast, add one
// target, promote one source — and an Evaluator makes those incremental
// rather than from-scratch (DESIGN.md Section 6):
//
//   - results are cached by platform fingerprint (topology, costs and
//     activity mask), source and target set, so re-evaluating an
//     accepted trial — or sharing one platform's bounds across the
//     baselines and heuristics of a sweep cell — is free;
//   - all solves share one lp.Workspace, so scratch memory and, within
//     each cutting-plane or column-generation loop, the simplex basis
//     are reused;
//   - Multicast-LB separation cuts are pooled per source and re-seeded
//     into later related solves after a cheap re-validation (a cut that
//     separated source from target keeps separating them in any
//     subgraph, so dropped-node trials inherit the full incumbent cut
//     set instead of re-peeling it);
//   - MulticastMultiSource-UB path columns are pooled and re-seeded the
//     same way, and the evaluator keeps one solved path master: a
//     promotion trial copies it and grows it by one source, re-solving
//     warm from its optimal basis instead of from scratch.
//
// An Evaluator is not safe for concurrent use; sweep workers hold one
// evaluator per task.
type Evaluator struct {
	ws       *lp.Workspace
	sc       scratch
	cache    map[evalKey]*Bound
	cutPools map[graph.NodeID][]seedCut
	cutSeen  map[graph.NodeID]map[string]bool
	paths    map[graph.NodeID][]pooledPath
	pathSeen map[graph.NodeID]map[string]bool
	// ms is the one stored MulticastMultiSource-UB path master
	// (multisource.go), solved to optimality; nil before the first
	// solve. It is never changed in place, only replaced, so evaluators
	// restored from this one (ResetTo, Clone) share it.
	ms    *msMaster
	stats SolveStats

	// Tree fast-path state (fastpath.go): the topology classifier with
	// its memoised view, the rate-scan scratch, and the opt-out switch
	// (SetFastPath) the forced-LP reference paths use.
	classifier graph.Classifier
	rateSc     tree.RateScratch
	noFastPath bool
}

// NewEvaluator returns an empty evaluator with its own LP workspace.
func NewEvaluator() *Evaluator {
	return &Evaluator{
		ws:       lp.NewWorkspace(),
		cache:    make(map[evalKey]*Bound),
		cutPools: make(map[graph.NodeID][]seedCut),
		cutSeen:  make(map[graph.NodeID]map[string]bool),
		paths:    make(map[graph.NodeID][]pooledPath),
		pathSeen: make(map[graph.NodeID]map[string]bool),
	}
}

// Reset discards the evaluator's logical state — the result cache, the
// pooled cuts, the pooled path columns and the stored path master —
// while retaining the LP workspace (and its allocated scratch memory)
// and the cumulative statistics. After a Reset the evaluator computes
// exactly what a fresh NewEvaluator() would, which is what lets a
// serving shard reuse one evaluator across requests and still answer
// every request bit-identically to a cold library call (see
// internal/serve).
func (e *Evaluator) Reset() {
	clear(e.cache)
	clear(e.cutPools)
	clear(e.cutSeen)
	clear(e.paths)
	clear(e.pathSeen)
	e.ms = nil
	// Classification is content-derived and deterministic, so keeping
	// the memo would be correct; dropping it releases the graph the
	// classifier pins, which matters for serving shards that outlive
	// the platforms they planned for.
	e.classifier.Invalidate()
}

// ResetTo replaces the evaluator's logical state with a deep copy of
// src's — the result cache, the pooled cuts, the pooled path columns
// and the fast-path switch — while retaining its own LP workspace (and
// its allocated scratch memory) and its cumulative statistics. The
// stored path master is shared rather than copied: no evaluator
// changes a stored master, promotion trials grow copies of it. After
// ResetTo(src) the evaluator computes exactly what src.Clone() would,
// and shares no mutable state with src. The what-if engine keeps one
// evaluator per worker and restores it to the baseline snapshot before
// every scenario, so the solver scratch is allocated once per worker
// rather than once per scenario. ResetTo only reads src, so many
// evaluators may be reset concurrently from one quiescent src.
func (e *Evaluator) ResetTo(src *Evaluator) {
	e.Reset()
	for k, b := range src.cache {
		e.cache[k] = cloneBound(b)
	}
	for s, pool := range src.cutPools {
		cp := make([]seedCut, len(pool))
		for i, c := range pool {
			cp[i] = seedCut{target: c.target, edges: append([]int(nil), c.edges...)}
		}
		e.cutPools[s] = cp
	}
	for s, seen := range src.cutSeen {
		e.cutSeen[s] = maps.Clone(seen)
	}
	for s, pool := range src.paths {
		pp := make([]pooledPath, len(pool))
		for i, p := range pool {
			pp[i] = pooledPath{origin: p.origin, dest: p.dest, edges: append([]int(nil), p.edges...)}
		}
		e.paths[s] = pp
	}
	for s, seen := range src.pathSeen {
		e.pathSeen[s] = maps.Clone(seen)
	}
	e.ms = src.ms
	e.noFastPath = src.noFastPath
}

// Clone returns a snapshot of the evaluator's logical state (see
// ResetTo) on its own fresh LP workspace, with zeroed statistics. A
// clone shares no mutable state with its parent: solving on one never
// changes what the other computes or reports. (Clones only read the
// parent, so many may be taken concurrently from one quiescent parent;
// each clone itself remains single-goroutine.)
func (e *Evaluator) Clone() *Evaluator {
	c := NewEvaluator()
	c.ResetTo(e)
	return c
}

// SetStop installs (or, with nil, removes) a cancellation flag on the
// evaluator's LP workspace: while any bound evaluation is solving, the
// simplex polls the flag and a set flag aborts the solve with
// lp.ErrCanceled, which propagates out of the evaluation untouched.
// Cached results and tree fast-path answers still return normally — a
// canceled evaluator only refuses new simplex work. Setting the flag
// is safe from any goroutine; SetStop itself must be called from the
// evaluator's own goroutine, between evaluations. Cancellation leaves
// no partial state behind: the result cache and the cut/path pools
// only ever record completed solves.
func (e *Evaluator) SetStop(stop *atomic.Bool) { e.ws.SetStop(stop) }

// Stats returns the cumulative evaluator and solver statistics.
func (e *Evaluator) Stats() SolveStats {
	s := e.stats
	w := e.ws.Stats()
	s.Solves = w.Solves
	s.ColdSolves = w.ColdSolves
	s.WarmAttempts = w.WarmAttempts
	s.WarmSolves = w.WarmHits
	s.Iterations = w.Iterations
	s.DualIters = w.DualIterations
	s.Factorized = w.Factorizations
	s.Refactors = w.Refactorizations
	return s
}

// Fingerprint hashes the platform content the LP bounds depend on:
// node count, activity mask, every edge's endpoints and cost, and the
// edge disable mask. Two
// graphs with equal fingerprints are interchangeable for every program
// in this package, which is what the evaluator's result cache — and the
// serving layer's platform registry, plan cache and shard router — key
// on.
func Fingerprint(g *graph.Graph) uint64 { return fingerprintGraph(g) }

// fingerprintGraph hashes the platform content an LP bound depends on:
// node count, activity mask, every edge's endpoints and cost, and the
// edge disable mask.
func fingerprintGraph(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(g.NumNodes()))
	for v := 0; v < g.NumNodes(); v++ {
		if g.Active(graph.NodeID(v)) {
			put(uint64(v)*2 + 1)
		}
	}
	put(uint64(g.NumEdges()))
	for id := 0; id < g.NumEdges(); id++ {
		ed := g.Edge(id)
		put(uint64(ed.From))
		put(uint64(ed.To))
		put(math.Float64bits(ed.Cost))
	}
	// Disabled edges change every LP, so they are part of the content.
	// Encoded as a trailing sparse list: a graph with no disabled edges
	// hashes exactly as before the edge mask existed.
	for id := 0; id < g.NumEdges(); id++ {
		if g.EdgeDisabled(id) {
			put(uint64(id)*2 + 1)
		}
	}
	return h.Sum64()
}

// hashNodes hashes a node set (order-insensitively when sorted is
// true; the multisource promotion order is significant, so extras hash
// in order).
func hashNodes(ids []graph.NodeID, sorted bool) uint64 {
	s := ids
	if sorted {
		s = append([]graph.NodeID(nil), ids...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range s {
		v := uint64(id)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// cloneBound returns a defensive copy so cached results cannot be
// mutated by callers.
func cloneBound(b *Bound) *Bound {
	c := *b
	if b.EdgeLoad != nil {
		c.EdgeLoad = append([]float64(nil), b.EdgeLoad...)
	}
	return &c
}

// lookup wraps the cache around a compute closure.
func (e *Evaluator) lookup(key evalKey, compute func() (*Bound, error)) (*Bound, error) {
	e.stats.Evaluations++
	if b, ok := e.cache[key]; ok {
		e.stats.CacheHits++
		return cloneBound(b), nil
	}
	b, err := compute()
	if err != nil {
		return nil, err
	}
	e.stats.Rounds += b.Rounds
	e.stats.Cuts += b.Cuts
	if len(e.cache) < cacheCap {
		e.cache[key] = cloneBound(b)
	}
	return b, nil
}

// ScatterUB evaluates the paper's Multicast-UB program, cached: the
// pessimistic scatter relaxation, whose period is an achievable upper
// bound on the optimal multicast period (Section 5.1.2 of the paper).
// On tree platforms the bound is computed combinatorially
// (fastpath.go), otherwise by the LP.
func (e *Evaluator) ScatterUB(p Problem) (*Bound, error) {
	key := evalKey{progScatter, fingerprintGraph(p.G), p.Source, hashNodes(p.Targets, true)}
	return e.lookup(key, func() (*Bound, error) {
		if b, ok := e.treeBound(p, true); ok {
			return b, nil
		}
		return e.scatterUB(p)
	})
}

// MulticastLB evaluates the paper's Multicast-LB program, cached and
// warm-started: the optimistic relaxation, whose period is a lower
// bound on the optimal multicast period, not achievable in general
// (Figure 4). The cutting plane is seeded from the pooled cuts of
// earlier related solves. On tree platforms the LP is skipped
// entirely: the bound is the combinatorial Steiner-subtree period
// (fastpath.go), cross-validated against the LP by the fast-path
// tests and FuzzTreeVsLP.
func (e *Evaluator) MulticastLB(p Problem) (*Bound, error) {
	key := evalKey{progLB, fingerprintGraph(p.G), p.Source, hashNodes(p.Targets, true)}
	return e.lookup(key, func() (*Bound, error) {
		if b, ok := e.treeBound(p, false); ok {
			return b, nil
		}
		return e.multicastLB(p)
	})
}

// BroadcastEB evaluates the exact broadcast period of the active
// platform: Multicast-LB with every active node as a target (so it
// shares cache entries and cut pools with MulticastLB). The paper
// (with [6, 5]) proves this bound is achieved by an actual broadcast
// schedule, so the period is exact. If some active node is unreachable
// the result is +Inf, the convention REDUCED BROADCAST relies on.
func (e *Evaluator) BroadcastEB(g *graph.Graph, source graph.NodeID) (*Bound, error) {
	if !g.Active(source) {
		return infeasibleBound(), nil
	}
	var targets []graph.NodeID
	for _, v := range g.ActiveNodes() {
		if v != source {
			targets = append(targets, v)
		}
	}
	if len(targets) == 0 {
		return &Bound{Period: 0, EdgeLoad: make([]float64, g.NumEdges())}, nil
	}
	p, err := NewProblem(g, source, targets)
	if err != nil {
		return nil, err
	}
	return e.MulticastLB(p)
}

// MultiSourceUB evaluates the paper's MulticastMultiSource-UB program
// (multisource.go) with the intermediate sources extras, in promotion
// order, cached. When extras extends the promotion order of the stored
// path master by one source (or two), the master is grown and
// re-solved warm; otherwise it is built cold, seeded from the pooled
// path columns of earlier promotion trials, and stored.
func (e *Evaluator) MultiSourceUB(p Problem, extras []graph.NodeID) (*Bound, error) {
	aux := hashNodes(p.Targets, true) ^ (hashNodes(extras, false) * 0x9e3779b97f4a7c15)
	key := evalKey{progMultiSource, fingerprintGraph(p.G), p.Source, aux}
	return e.lookup(key, func() (*Bound, error) { return e.multiSourceUB(p, extras, key.graph) })
}

// DropNodeBroadcast evaluates Broadcast-EB with one node removed — the
// inner step of REDUCED BROADCAST — restoring the activity mask before
// returning. Committing an accepted trial (deactivate the node and call
// BroadcastEB) is then a cache hit.
func (e *Evaluator) DropNodeBroadcast(g *graph.Graph, source, drop graph.NodeID) (*Bound, error) {
	if !g.Active(drop) {
		return e.BroadcastEB(g, source)
	}
	g.Deactivate(drop)
	defer g.Activate(drop)
	return e.BroadcastEB(g, source)
}

// AddNodeBroadcast evaluates Broadcast-EB with one node added — the
// inner step of AUGMENTED MULTICAST — restoring the activity mask
// before returning.
func (e *Evaluator) AddNodeBroadcast(g *graph.Graph, source, add graph.NodeID) (*Bound, error) {
	if g.Active(add) {
		return e.BroadcastEB(g, source)
	}
	g.Activate(add)
	defer g.Deactivate(add)
	return e.BroadcastEB(g, source)
}

// PromoteSource evaluates MulticastMultiSource-UB with one more
// promoted source appended to extras — the inner step of AUGMENTED
// SOURCES. When the evaluator's stored path master is that of extras,
// or of extras without its last source, the trial grows a copy of it
// instead of building a master of its own (see MultiSourceUB).
func (e *Evaluator) PromoteSource(p Problem, extras []graph.NodeID, cand graph.NodeID) (*Bound, error) {
	grown := make([]graph.NodeID, 0, len(extras)+1)
	grown = append(grown, extras...)
	grown = append(grown, cand)
	return e.MultiSourceUB(p, grown)
}

// validCuts returns the pooled cuts that are still valid for p: the
// separated target must be in p's target set, and the cut's still-
// active edges must still disconnect it from the source (always true
// for subgraphs of the platform the cut came from; re-verified by BFS
// so supergraphs are safe too). The pools are keyed by source ID only,
// so a cut may come from another platform: it is kept only if its
// target and every edge exist in p.G, and the BFS then decides.
func (e *Evaluator) validCuts(p Problem) []seedCut {
	pool := e.cutPools[p.Source]
	if len(pool) == 0 {
		return nil
	}
	sc := &e.sc
	if cap(sc.inT) < p.G.NumNodes() {
		sc.inT = make([]bool, p.G.NumNodes())
	}
	inTargets := sc.inT[:p.G.NumNodes()]
	for i := range inTargets {
		inTargets[i] = false
	}
	for _, t := range p.Targets {
		inTargets[t] = true
	}
	var out []seedCut
	if cap(sc.blocked) < p.G.NumEdges() {
		sc.blocked = make([]bool, p.G.NumEdges())
	}
	blocked := sc.blocked[:p.G.NumEdges()]
	for _, s := range pool {
		if int(s.target) >= len(inTargets) || !inTargets[s.target] || !p.G.Active(s.target) ||
			!edgesExist(p.G, s.edges) {
			continue
		}
		active := make([]int, 0, len(s.edges))
		for _, id := range s.edges {
			if p.G.EdgeActive(id) {
				active = append(active, id)
			}
		}
		if len(active) == 0 {
			continue
		}
		if cutSeparates(p.G, p.Source, s.target, active, blocked, sc) {
			out = append(out, seedCut{target: s.target, edges: active})
		}
	}
	return out
}

// edgesExist reports whether every edge ID is in range for g.
func edgesExist(g *graph.Graph, edges []int) bool {
	for _, id := range edges {
		if id >= g.NumEdges() {
			return false
		}
	}
	return true
}

// isActivePath reports whether edges is an origin->dest path of g's
// active edges: each edge exists, is active, and starts where the
// previous one ends. A pooled path from another platform can fail any
// of these; one from g's own lineage fails only on activity.
func isActivePath(g *graph.Graph, origin, dest graph.NodeID, edges []int) bool {
	at := origin
	for _, id := range edges {
		if id >= g.NumEdges() || !g.EdgeActive(id) {
			return false
		}
		ed := g.Edge(id)
		if ed.From != at {
			return false
		}
		at = ed.To
	}
	return at == dest
}

// cutSeparates reports whether removing the cut edges disconnects
// source from target in the active graph. blocked is caller-provided
// scratch of size NumEdges, reset on return; the BFS marking and stack
// come from sc.
func cutSeparates(g *graph.Graph, source, target graph.NodeID, cut []int, blocked []bool, sc *scratch) bool {
	for _, id := range cut {
		blocked[id] = true
	}
	defer func() {
		for _, id := range cut {
			blocked[id] = false
		}
	}()
	if cap(sc.seen) < g.NumNodes() {
		sc.seen = make([]bool, g.NumNodes())
	}
	seen := sc.seen[:g.NumNodes()]
	for i := range seen {
		seen[i] = false
	}
	stack := append(sc.stack[:0], source)
	seen[source] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sc.buf = g.OutEdges(v, sc.buf[:0])
		for _, id := range sc.buf {
			if blocked[id] {
				continue
			}
			to := g.Edge(id).To
			if !seen[to] {
				if to == target {
					sc.stack = stack[:0]
					return false
				}
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	sc.stack = stack[:0]
	return true
}

func (e *Evaluator) recordCut(source, target graph.NodeID, cut []int) {
	seen := e.cutSeen[source]
	if seen == nil {
		seen = make(map[string]bool)
		e.cutSeen[source] = seen
	}
	if len(e.cutPools[source]) >= cutPoolCap {
		return
	}
	key := cutKey(cut)
	if seen[key] {
		return
	}
	seen[key] = true
	e.cutPools[source] = append(e.cutPools[source], seedCut{target: target, edges: append([]int(nil), cut...)})
}

func (e *Evaluator) recordPath(source, origin, dest graph.NodeID, edges []int) {
	seen := e.pathSeen[source]
	if seen == nil {
		seen = make(map[string]bool)
		e.pathSeen[source] = seen
	}
	if len(e.paths[source]) >= pathPoolCap {
		return
	}
	key := pathPoolKey(origin, dest, edges)
	if seen[key] {
		return
	}
	seen[key] = true
	e.paths[source] = append(e.paths[source], pooledPath{origin: origin, dest: dest, edges: append([]int(nil), edges...)})
}

func pathPoolKey(origin, dest graph.NodeID, edges []int) string {
	b := make([]byte, 0, 8+4*len(edges))
	b = appendInt(b, int(origin))
	b = appendInt(b, int(dest))
	for _, id := range edges {
		b = appendInt(b, id)
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
}
