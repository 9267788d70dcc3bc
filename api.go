package repro

import (
	"io"
	"math/rand"
	"net/http"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/mcastclient"
	"repro/internal/platforms"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/steady"
	"repro/internal/tiers"
	"repro/internal/tree"
	"repro/internal/whatif"
)

// Core model types.
type (
	// Graph is a heterogeneous platform: an edge-weighted digraph whose
	// edge costs are transfer times per unit-size message.
	Graph = graph.Graph
	// NodeID identifies a platform node.
	NodeID = graph.NodeID
	// Problem is a Series-of-Multicasts instance: platform, source and
	// target set.
	Problem = steady.Problem
	// Bound is the outcome of one of the steady-state LP programs.
	Bound = steady.Bound
	// HeuristicResult is the outcome of one heuristic run.
	HeuristicResult = heur.Result
	// Heuristic is a named algorithm for the Series problem.
	Heuristic = heur.Heuristic
	// Tree is a multicast arborescence.
	Tree = tree.Tree
	// WeightedTree is a multicast tree carrying a steady-state rate.
	WeightedTree = tree.WeightedTree
	// Packing is an optimal weighted tree packing (the exact optimum).
	Packing = tree.Packing
	// SimReport summarises a one-port simulation run.
	SimReport = sim.Report
	// ExamplePlatform is one of the paper's worked example platforms.
	ExamplePlatform = platforms.Platform
	// TiersPlatform is a generated hierarchical topology.
	TiersPlatform = tiers.Platform
)

// NewPlatform returns an empty platform graph.
func NewPlatform() *Graph { return graph.New() }

// NewProblem validates and builds a Series-of-Multicasts instance.
func NewProblem(g *Graph, source NodeID, targets []NodeID) (Problem, error) {
	return steady.NewProblem(g, source, targets)
}

// Evaluator is the one route to the paper's steady-state bounds: its
// ScatterUB (Multicast-UB, the achievable scatter relaxation, an upper
// bound on the optimal period), MulticastLB (the optimistic Multicast-LB
// lower bound, not achievable in general), BroadcastEB (the exact
// broadcast period of the active platform) and MultiSourceUB methods.
// Results are cached by platform fingerprint and target set, all
// solves share one reusable LP workspace, and the cutting-plane /
// column-generation state (cuts, path columns) of earlier solves seeds
// later related ones. The LP-based heuristics run their incremental
// inner loops (drop node, add node, promote source) against it. Not
// safe for concurrent use — hold one per goroutine.
type Evaluator = steady.Evaluator

// SolveStats aggregates LP-solver and evaluator activity: solves,
// simplex iterations, warm-start and cache hits, cutting-plane rounds
// and cuts.
type SolveStats = steady.SolveStats

// NewEvaluator returns an empty bound evaluator with its own LP
// workspace.
func NewEvaluator() *Evaluator { return steady.NewEvaluator() }

// HeuristicsWith returns the paper's heuristic set (MCPH, Augmented
// Multicast, Reduced Broadcast, Augmented Sources) bound to a shared
// evaluator, so consecutive runs on the same platform reuse each
// other's LP work.
func HeuristicsWith(ev *Evaluator) []Heuristic { return heur.AllWith(ev) }

// Optimal computes the exact optimal steady-state multicast throughput
// via the Theorem 4 weighted tree-packing LP (exponential in the number
// of targets; small instances only).
func Optimal(g *Graph, source NodeID, targets []NodeID) (*Packing, error) {
	return tree.PackOptimal(g, source, targets)
}

// BestSingleTree computes the exact best single multicast tree (the
// COMPACT-MULTICAST optimum for S = 2; exponential, small instances
// only).
func BestSingleTree(g *Graph, source NodeID, targets []NodeID) (*Tree, float64, error) {
	return tree.BestSingleTree(g, source, targets)
}

// Simulate runs count pipelined multicasts through the weighted trees
// under the one-port model and reports the sustained throughput.
func Simulate(g *Graph, source NodeID, targets []NodeID, trees []WeightedTree, count int) (*SimReport, error) {
	return sim.Run(g, source, targets, trees, count)
}

// GenerateSmallPlatform generates the paper's "small" Tiers-like
// platform preset (30 nodes, 17 LAN hosts).
func GenerateSmallPlatform(seed int64) (*TiersPlatform, error) {
	return tiers.Generate(tiers.Small(seed))
}

// GenerateBigPlatform generates the paper's "big" preset (65 nodes, 47
// LAN hosts).
func GenerateBigPlatform(seed int64) (*TiersPlatform, error) {
	return tiers.Generate(tiers.Big(seed))
}

// RandomTargets draws a target set of the given density from a
// generated platform's LAN hosts.
func RandomTargets(p *TiersPlatform, rng *rand.Rand, density float64) []NodeID {
	return p.RandomTargets(rng, density)
}

// Figure1, Figure4 and Figure5 return the paper's worked example
// platforms (see internal/platforms for their derivations).
func Figure1() ExamplePlatform { return platforms.Figure1() }

// Figure4 returns the "neither bound is tight" gadget.
func Figure4() ExamplePlatform { return platforms.Figure4() }

// Figure5 returns the |Ptarget|-gap relay star.
func Figure5() ExamplePlatform { return platforms.Figure5() }

// Serving layer (cmd/mcastd): a long-running HTTP/JSON planning
// daemon over a sharded evaluator pool, with a platform registry, an
// LRU plan cache and singleflight request coalescing. Every response
// is bit-identical to the serial library-call sequence for the same
// request; see DESIGN.md Section 9.
type (
	// PlanServer is the planning daemon: an http.Handler wiring the
	// platform registry, plan cache, coalescer and evaluator shards.
	PlanServer = serve.Server
	// ServeConfig parameterises a PlanServer (shard count, plan cache
	// capacity, upload size limit).
	ServeConfig = serve.Config
	// PlanSpec is the shared request core — platform addressing,
	// source, targets, bound/heuristic subsets — embedded by
	// PlanRequest, WhatifRequest and BatchItem. The embedding is
	// wire-transparent: the JSON layout is the same flat object the v1
	// API has always accepted.
	PlanSpec = serve.PlanSpec
	// PlanRequest is the body of POST /v1/plan.
	PlanRequest = serve.PlanRequest
	// PlanResponse is the body of a successful POST /v1/plan.
	PlanResponse = serve.PlanResponse
	// PlatformUpload is the body of POST /v1/platforms.
	PlatformUpload = serve.UploadRequest
	// BatchRequest is the body of POST /v1/plan:batch and POST
	// /v1/jobs: shared spec defaults plus an item list.
	BatchRequest = serve.BatchRequest
	// BatchItem is one entry of a BatchRequest.
	BatchItem = serve.BatchItem
	// BatchLine is one NDJSON line of a batch (or job) result stream.
	BatchLine = serve.BatchLine
	// JobStatus is the body of a job poll (GET /v1/jobs/{id}).
	JobStatus = serve.JobStatus
	// APIErrorBody is the structured error payload every v1 endpoint
	// wraps in {"error": {...}} on failure.
	APIErrorBody = serve.ErrorBody
	// APIErrorEnvelope is the full error response body.
	APIErrorEnvelope = serve.ErrorEnvelope
)

// NewPlanServer returns a ready planning daemon; mount it on any
// http.Server (cmd/mcastd adds flags, logging and graceful shutdown).
func NewPlanServer(cfg ServeConfig) *PlanServer { return serve.New(cfg) }

type (
	// Client is the typed Go client for a running mcastd: platform
	// upload, plans, batch streams and the async job lifecycle, with
	// server failures decoded into *APIError.
	Client = mcastclient.Client
	// APIError is a structured v1 API failure: HTTP status plus the
	// decoded error envelope (code and message).
	APIError = mcastclient.APIError
)

// NewClient returns a Client for the daemon at baseURL. A nil
// httpClient means http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return mcastclient.New(baseURL, httpClient)
}

// Serve runs a planning daemon on addr until the listener fails. For
// graceful shutdown, build an http.Server around NewPlanServer
// instead (see cmd/mcastd).
func Serve(addr string, cfg ServeConfig) error {
	return http.ListenAndServe(addr, serve.New(cfg))
}

// Live platforms (PATCH /v1/platforms/{id}, GET .../subscribe):
// platforms are versioned and mutable in place via atomic delta
// batches, and subscriptions stream a fresh plan per version —
// byte-identical to a cold solve of that version's snapshot. The
// same delta vocabulary drives Evaluator.Replan, the warm in-process
// re-solve; see DESIGN.md Section 14.
type (
	// Delta is an ordered, atomically-applied batch of platform
	// mutations (see DropNode, AddEdge, ScaleEdgeCost, ...).
	Delta = graph.Delta
	// DeltaOp is one platform mutation.
	DeltaOp = graph.DeltaOp
	// ReplanResult is the outcome of Evaluator.Replan: the re-solved
	// plan plus whether the warm path or a cold fallback produced it.
	ReplanResult = steady.ReplanResult
	// PatchOp is the wire spelling of a DeltaOp: nodes by name, edges
	// by ID or by endpoint names.
	PatchOp = serve.PatchOp
	// PatchRequest is the body of PATCH /v1/platforms/{id}.
	PatchRequest = serve.PatchRequest
	// PatchResponse reports the post-patch version and fingerprint plus
	// cache invalidation/repair counts.
	PatchResponse = serve.PatchResponse
	// ChangeRecord is one entry of GET /v1/platforms/{id}/log.
	ChangeRecord = serve.ChangeRecord
	// SubscribeLine is one streamed update of GET
	// /v1/platforms/{id}/subscribe: a version and its plan (or error).
	SubscribeLine = serve.SubscribeLine
	// SubscribeSpec selects what a Client.Subscribe stream re-plans.
	SubscribeSpec = mcastclient.SubscribeSpec
	// Subscription is a Client.Subscribe pull iterator (Next/Close).
	Subscription = mcastclient.Subscription
)

// Delta op constructors, re-exported for library callers driving
// Evaluator.Replan directly (HTTP callers use the PatchOp wire form).
func DropNode(v NodeID) DeltaOp    { return graph.DropNodeOp(v) }
func RestoreNode(v NodeID) DeltaOp { return graph.RestoreNodeOp(v) }
func AddNode(name string) DeltaOp  { return graph.AddNodeOp(name) }
func DisableEdge(id int) DeltaOp   { return graph.DisableEdgeOp(id) }
func EnableEdge(id int) DeltaOp    { return graph.EnableEdgeOp(id) }
func AddEdge(from, to NodeID, cost float64) DeltaOp {
	return graph.AddEdgeOp(from, to, cost)
}
func SetEdgeCost(id int, cost float64) DeltaOp {
	return graph.SetEdgeCostOp(id, cost)
}
func ScaleEdgeCost(id int, factor float64) DeltaOp {
	return graph.ScaleEdgeCostOp(id, factor)
}

// What-if resilience engine (internal/whatif, POST /v1/whatif): given
// an instance, evaluate node failures, per-edge link failures and
// bandwidth degradations, and secondary-source promotions — each
// answered from the baseline optimum when it cannot move it, or else
// solved on an evaluator warm-started from the baseline solve — and
// rank the critical nodes and edges. Reports are bit-identical for any
// worker count; see DESIGN.md Section 10.
type (
	// WhatifConfig selects the scenario family and worker count.
	WhatifConfig = whatif.Config
	// WhatifScenario is one platform perturbation.
	WhatifScenario = whatif.Scenario
	// WhatifResult is one scenario's outcome (throughput delta vs the
	// baseline, surviving MCPH tree, infeasibility).
	WhatifResult = whatif.Result
	// WhatifReport is the full analysis: baseline, per-scenario results
	// and the criticality rankings.
	WhatifReport = whatif.Report
	// WhatifRequest is the body of POST /v1/whatif on a PlanServer.
	WhatifRequest = serve.WhatifRequest
)

// WhatIf runs the resilience engine on an instance. The zero config
// evaluates nothing; start from WhatIfDefaults for the full family
// (every node failure, every link failure, every source promotion).
func WhatIf(p Problem, cfg WhatifConfig) (*WhatifReport, error) {
	return whatif.Analyze(p, cfg)
}

// WhatIfDefaults is the scenario family cmd/mcast -whatif and the
// serving layer run by default.
func WhatIfDefaults() WhatifConfig { return whatif.DefaultConfig() }

// SweepConfig parameterises a Figure 11 density sweep. The grid runs
// concurrently by default (Workers < 1 means runtime.GOMAXPROCS(0));
// set Workers to override the pool size, or to 1 to force serial
// execution. Per-task seeding keeps the result bit-identical for any
// worker count.
type SweepConfig = exp.Config

// SweepCell is one aggregated (density, series) data point.
type SweepCell = exp.Cell

// SweepTask identifies one (platform, density) grid point of a sweep.
type SweepTask = exp.Task

// SweepTaskResult is the structured outcome of one sweep task; task
// failures are carried in its Err field rather than aborting the sweep.
type SweepTaskResult = exp.TaskResult

// RunSweep executes a Figure 11 experiment sweep on SweepConfig.Workers
// concurrent workers and aggregates the per-task results into cells.
func RunSweep(cfg SweepConfig) ([]SweepCell, error) { return exp.Run(cfg) }

// RunSweepTasks executes the sweep grid and returns the raw per-task
// results in task order (platform-major), without aggregation.
func RunSweepTasks(cfg SweepConfig) ([]SweepTaskResult, error) { return exp.Sweep(cfg) }

// AggregateSweep folds per-task results into one cell per (density,
// series), skipping failed tasks.
func AggregateSweep(results []SweepTaskResult) []SweepCell { return exp.Aggregate(results) }

// AggregateSweepStats folds the per-task LP-solver statistics of a
// sweep into one total.
func AggregateSweepStats(results []SweepTaskResult) SolveStats { return exp.AggregateStats(results) }

// SweepTable renders sweep cells as one Figure 11 panel ("scatter" or
// "lb" baseline).
func SweepTable(cells []SweepCell, baseline string) string { return exp.Table(cells, baseline) }

// EncodeSweep persists sweep cells as JSON so a finished sweep can be
// re-rendered later without re-solving the LPs.
func EncodeSweep(w io.Writer, cells []SweepCell) error { return exp.EncodeCells(w, cells) }

// DecodeSweep reads cells previously written by EncodeSweep.
func DecodeSweep(r io.Reader) ([]SweepCell, error) { return exp.DecodeCells(r) }
