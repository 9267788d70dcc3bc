package serve

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/steady"
)

// Bound names accepted in PlanRequest.Bounds, in canonical execution
// order.
const (
	BoundScatter   = "scatter"   // Multicast-UB, the achievable scatter relaxation
	BoundLB        = "lb"        // Multicast-LB, the optimistic lower bound
	BoundBroadcast = "broadcast" // Broadcast-EB of the full active platform
)

var boundOrder = []string{BoundScatter, BoundLB, BoundBroadcast}

// PlanRequest is the body of POST /v1/plan: the shared PlanSpec
// request core (exactly one of platform_id or an inline platform must
// be set) plus the interactive-only caching control. The JSON layout
// is identical to the historical flat struct — PlanSpec's fields are
// promoted into the object.
type PlanRequest struct {
	PlanSpec
	// NoCache bypasses the plan cache and the coalescer for this
	// request (the response is still cached for later requests).
	NoCache bool `json:"no_cache,omitempty"`
	// TimeoutMillis bounds this request's compute in milliseconds,
	// clamped to the server's MaxTimeout; 0 defers to the server's
	// DefaultTimeout. An expired budget answers 503/deadline.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Degraded opts into the saturation fallbacks: when admission
	// control sheds this request, answer from the plan cache or — on a
	// tree platform — with a bounds-only combinatorial plan, marked by
	// the X-Mcastd-Degraded header, instead of a 429. Responses without
	// that header are always full-fidelity.
	Degraded bool `json:"degraded,omitempty"`
}

// BoundResult is one bound program's outcome.
type BoundResult struct {
	Name       string  `json:"name"`
	Period     float64 `json:"period,omitempty"`
	Throughput float64 `json:"throughput,omitempty"`
	Infeasible bool    `json:"infeasible,omitempty"`
}

// PlanEdge is one tree edge of a tree-shaped plan, by node name.
type PlanEdge struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Cost float64 `json:"cost"`
}

// PlanResult is one heuristic's outcome. A heuristic that fails on the
// instance (e.g. MCPH with an unreachable target) reports its error
// here instead of failing the whole request.
type PlanResult struct {
	Heuristic  string     `json:"heuristic"`
	Period     float64    `json:"period,omitempty"`
	Throughput float64    `json:"throughput,omitempty"`
	Infeasible bool       `json:"infeasible,omitempty"`
	Tree       []PlanEdge `json:"tree,omitempty"`
	Sources    []string   `json:"sources,omitempty"`
	Kept       []string   `json:"kept,omitempty"`
	Evals      int        `json:"evals,omitempty"`
	Error      string     `json:"error,omitempty"`
}

// PlanResponse is the body of a successful POST /v1/plan. It is a pure
// function of (platform content, source, target order, requested
// bounds and heuristics): concurrency, caching and coalescing never
// change a byte (serving metadata travels in response headers instead,
// see the X-Mcastd-* constants).
type PlanResponse struct {
	PlatformID  string        `json:"platform_id,omitempty"`
	Fingerprint string        `json:"fingerprint"`
	Source      string        `json:"source"`
	Targets     []string      `json:"targets"`
	Bounds      []BoundResult `json:"bounds,omitempty"`
	Plans       []PlanResult  `json:"plans,omitempty"`
}

// planKey identifies one plan computation for the cache, the
// coalescer and the shard router. Targets are joined as an exact
// ID string (no hashing), so distinct requests can never collide into
// each other's cache entries.
type planKey struct {
	id      string // registered platform ID ("" for inline platforms)
	fp      uint64
	source  graph.NodeID
	targets string
	bounds  uint8
	heurs   uint8
}

func targetsKey(targets []graph.NodeID) string {
	var sb strings.Builder
	for i, t := range targets {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", t)
	}
	return sb.String()
}

// routeHash spreads plan keys over shards with the sweep engine's
// splitmix64 finalizer. The masks are excluded so a bounds-only probe
// and a full plan for the same problem land on the same shard;
// distinct problems — even on one platform — spread across all
// shards, which is what lets one hot platform scale to the whole
// pool.
func (k planKey) routeHash() uint64 {
	z := k.fp
	z = exp.Mix64(z + uint64(k.source)*0xbf58476d1ce4e5b9)
	for i := 0; i < len(k.targets); i++ {
		z = exp.Mix64(z + uint64(k.targets[i])*0x94d049bb133111eb)
	}
	return z
}

// boundsMask resolves requested bound names to a bitmask over
// boundOrder. nil selects all bounds; an empty non-nil slice selects
// none.
func boundsMask(names []string) (uint8, error) {
	if names == nil {
		return 1<<len(boundOrder) - 1, nil
	}
	var mask uint8
	for _, n := range names {
		i := indexFold(boundOrder, n)
		if i < 0 {
			return 0, fmt.Errorf("unknown bound %q (want one of %s)", n, strings.Join(boundOrder, ", "))
		}
		mask |= 1 << i
	}
	return mask, nil
}

// heurNames is the registry order of heur.AllWith; the mask bit of a
// heuristic is its index here. Only the names are read, so no
// evaluator is bound.
var heurNames = func() []string {
	all := heur.AllWith(nil)
	names := make([]string, len(all))
	for i, h := range all {
		names[i] = h.Name
	}
	return names
}()

// heurMask resolves requested heuristic names (case-insensitive) to a
// bitmask over the registry order. nil selects all; empty selects
// none.
func heurMask(names []string) (uint8, error) {
	if names == nil {
		return 1<<len(heurNames) - 1, nil
	}
	var mask uint8
	for _, n := range names {
		i := indexFold(heurNames, n)
		if i < 0 {
			return 0, fmt.Errorf("unknown heuristic %q (want one of %s)", n, strings.Join(heurNames, ", "))
		}
		mask |= 1 << i
	}
	return mask, nil
}

func indexFold(names []string, want string) int {
	for i, n := range names {
		if strings.EqualFold(n, want) {
			return i
		}
	}
	return -1
}

// executePlan runs the canonical plan sequence — the requested bounds
// in boundOrder, then the requested heuristics in registry order — on
// one evaluator. fp must be steady.Fingerprint(g) (passed in so the
// hot path hashes a registered platform once, at upload). This is
// exactly the serial library-call sequence: the server's determinism
// guarantee is that every response equals executePlan on a fresh
// evaluator, whatever shard, cache or coalescer state it was actually
// served from.
func executePlan(ev *steady.Evaluator, g *graph.Graph, fp uint64, source graph.NodeID, targets []graph.NodeID, bounds, heurs uint8) (*PlanResponse, error) {
	resp := &PlanResponse{
		Fingerprint: fmt.Sprintf("%016x", fp),
		Source:      g.Name(source),
		Targets:     nodeNames(g, targets),
	}
	p, err := steady.NewProblem(g, source, targets)
	if err != nil {
		return nil, err
	}
	run := func(name string, f func() (*steady.Bound, error)) error {
		b, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		br := BoundResult{Name: name}
		if b.Infeasible() {
			br.Infeasible = true
		} else {
			br.Period = b.Period
			br.Throughput = b.Throughput()
		}
		resp.Bounds = append(resp.Bounds, br)
		return nil
	}
	for i, name := range boundOrder {
		if bounds&(1<<i) == 0 {
			continue
		}
		var err error
		switch name {
		case BoundScatter:
			err = run(name, func() (*steady.Bound, error) { return ev.ScatterUB(p) })
		case BoundLB:
			err = run(name, func() (*steady.Bound, error) { return ev.MulticastLB(p) })
		case BoundBroadcast:
			err = run(name, func() (*steady.Bound, error) { return ev.BroadcastEB(g, source) })
		}
		if err != nil {
			return nil, err
		}
	}
	for i, h := range heur.AllWith(ev) {
		if heurs&(1<<i) == 0 {
			continue
		}
		pr := PlanResult{Heuristic: h.Name}
		res, err := h.Run(p)
		switch {
		case err != nil:
			pr.Error = err.Error()
		case res.Throughput() == 0:
			pr.Infeasible = true
		default:
			pr.Period = res.Period
			pr.Throughput = res.Throughput()
			pr.Sources = nodeNames(g, res.Sources)
			pr.Kept = nodeNames(g, res.Kept)
			pr.Evals = res.Evals
			if res.Tree != nil {
				edges := append([]int(nil), res.Tree.Edges...)
				sort.Ints(edges)
				for _, id := range edges {
					e := g.Edge(id)
					pr.Tree = append(pr.Tree, PlanEdge{From: g.Name(e.From), To: g.Name(e.To), Cost: e.Cost})
				}
			}
		}
		resp.Plans = append(resp.Plans, pr)
	}
	return resp, nil
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
