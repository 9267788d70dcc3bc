package serve

import (
	"sync"

	"repro/internal/steady"
)

// shard is one lane of the evaluator pool: a mutex-confined
// steady.Evaluator (documented as not safe for concurrent use) plus a
// request counter. The evaluator is Reset between requests — its
// logical state (result cache, cut and path pools, stored multisource
// master) never leaks from one request into the next, which is what keeps every response
// bit-identical to a cold library call — while its LP workspace keeps
// its allocated scratch memory and its cumulative solver statistics
// across the shard's lifetime.
type shard struct {
	mu     sync.Mutex
	ev     *steady.Evaluator
	served int64
}

// shardPool routes plan computations onto a fixed set of shards by
// problem-key hash: identical requests always land on the same shard;
// distinct requests — even against one platform — spread over the
// whole pool.
type shardPool struct {
	shards []*shard
}

func newShardPool(n int) *shardPool {
	p := &shardPool{shards: make([]*shard, n)}
	for i := range p.shards {
		p.shards[i] = &shard{ev: steady.NewEvaluator()}
	}
	return p
}

// route is the shard a plan key computes on, unless a batch pins its
// items to a lane.
func (p *shardPool) route(key planKey) int {
	return int(key.routeHash() % uint64(len(p.shards)))
}

// runOnEv executes fn on shard idx's freshly Reset evaluator,
// serialised with the shard's other work. The batch fan-out pins each
// worker to one lane and computes every claimed item here — the lane
// choice cannot change response bytes (the evaluator is Reset per
// item), it only decides which lane's lock the work queues on.
//
// Lock discipline: a goroutine must never block on another flight or
// shard while it holds a shard mutex — batch workers wait out
// coalesced flights *outside* runOnEv, which is what makes a batch
// follower of an interactive leader (and vice versa) deadlock-free.
func (p *shardPool) runOnEv(idx int, fn func(ev *steady.Evaluator) error) error {
	s := p.shards[idx]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ev.Reset()
	s.served++
	return fn(s.ev)
}

// runOn serialises fn with the other work of shard idx without
// handing it the shard's evaluator: the what-if fan-out borrows the
// shard lanes for scenario jobs that bring their own cloned
// evaluators, so scenario work and plan requests share one concurrency
// budget.
func (p *shardPool) runOn(idx int, fn func()) {
	s := p.shards[idx]
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// stats aggregates the cumulative solver statistics of every shard and
// returns the per-shard served-request counts.
func (p *shardPool) stats() (steady.SolveStats, []int64) {
	var total steady.SolveStats
	served := make([]int64, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		total.Add(s.ev.Stats())
		served[i] = s.served
		s.mu.Unlock()
	}
	return total, served
}
