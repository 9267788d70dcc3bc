// Package repro reproduces "Complexity results and heuristics for
// pipelined multicast operations on heterogeneous platforms" (Beaumont,
// Legrand, Marchal, Robert — INRIA RR-5123 / ICPP 2004): steady-state
// throughput optimisation for a series of multicasts on an
// edge-weighted platform digraph under the bidirectional one-port
// model.
//
// This root package is a thin façade over the implementation packages:
//
//	internal/graph     platform model (digraph, activity masks, paths)
//	internal/lp        sparse revised simplex (built from scratch):
//	                   reusable Workspaces, warm starts from a prior
//	                   basis (dual-simplex cleanup after row addition,
//	                   primal pricing after column addition)
//	internal/flow      max-flow / min-cut / flow decomposition
//	internal/steady    the paper's LP bounds (Multicast-UB/LB,
//	                   Broadcast-EB, MulticastMultiSource-UB) plus the
//	                   Evaluator: cached, warm-started, incremental
//	                   bound evaluation for the heuristics and sweeps
//	internal/heur      the four heuristics (MCPH, Augmented Multicast,
//	                   Reduced Broadcast, Augmented Sources)
//	internal/tree      multicast trees and the exact optimum
//	                   (tree-packing LP by column generation)
//	internal/sched     periodic one-port timetables (König colouring)
//	internal/sim       discrete-event one-port simulator
//	internal/tiers     Tiers-like random topology generator
//	internal/setcover  MINIMUM-SET-COVER and the Theorem 1 reduction
//	internal/prefix    pipelined parallel prefix and the Theorem 5
//	                   reduction
//	internal/exp       the Figure 11 experiment harness: a concurrent
//	                   sweep engine (task generator, ordered fan-out,
//	                   order-independent aggregator) with deterministic
//	                   per-task seeding, so a sweep's cells are
//	                   bit-identical for any worker count
//	internal/fanout    the ordered fan-out behind the sweep, the batch
//	                   endpoint and the what-if scenario loop
//	internal/serve     the mcastd planning daemon: platform registry,
//	                   LRU plan cache, singleflight coalescing and a
//	                   sharded evaluator pool behind an HTTP/JSON API,
//	                   with responses bit-identical to serial library
//	                   calls
//	internal/testutil  tiny shared test helpers (Near)
//
// The sweep engine is surfaced as RunSweep (aggregated cells),
// RunSweepTasks (structured per-task results with errors carried as
// values), and EncodeSweep/DecodeSweep (JSON persistence of finished
// sweeps). SweepConfig.Workers sets the pool size; zero means
// runtime.GOMAXPROCS(0). Each task runs on its own Evaluator
// (NewEvaluator / HeuristicsWith), so the baselines and heuristics of
// one grid cell share cached bounds, pooled cuts and one LP
// workspace; AggregateSweepStats totals the solver statistics the
// -solvestats flag of cmd/experiments reports. The Evaluator is the
// one route to every bound (ScatterUB, MulticastLB, BroadcastEB,
// MultiSourceUB), and HeuristicsWith binds the heuristics to one.
//
// The serving layer is surfaced as NewPlanServer / Serve (cmd/mcastd
// adds flags and graceful shutdown); ServeConfig.Shards sets the
// evaluator pool size, zero meaning runtime.GOMAXPROCS(0).
//
// See README.md for a tour. The benchmarks in bench_test.go regenerate
// every figure and table of the paper's evaluation; the Figure 11
// benchmarks run one reduced grid per platform size and report both of
// its panels, and BenchmarkServePlan1Shard/...MaxShards measure the
// serving layer's shard scaling.
package repro
