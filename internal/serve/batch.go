package serve

import (
	"context"
	"encoding/json"
	"iter"
	"net/http"

	"repro/internal/fanout"
)

// BatchRequest is the body of POST /v1/plan:batch and POST /v1/jobs: a
// batch-level PlanSpec holding shared defaults (platform addressing,
// source, targets, bound/heuristic subsets) plus the item list. Every
// item is itself a PlanSpec; item fields override the shared defaults
// field by field, with platform addressing replaced all-or-nothing
// (an item that names either platform_id or an inline platform ignores
// the shared addressing entirely).
type BatchRequest struct {
	PlanSpec
	// Items are the plan specs, answered in submission order.
	Items []BatchItem `json:"items"`
	// NoCache bypasses the plan cache and the coalescer for every item
	// (results are still cached for later requests), mirroring
	// PlanRequest.NoCache.
	NoCache bool `json:"no_cache,omitempty"`
	// TimeoutMillis bounds the whole batch's compute in milliseconds
	// (clamped to the server's MaxTimeout; 0 defers to DefaultTimeout).
	// When the budget expires, items not yet computed drain as
	// 503/deadline error lines — the stream stays well-formed.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// BatchItem is one entry of a batch: a PlanSpec whose unset fields
// inherit the batch-level shared spec.
type BatchItem struct {
	PlanSpec
}

// BatchLine is one NDJSON line of a batch (or job) result stream:
// per-item "plan" lines in submission order, then one "summary" line.
// A plan line carries either the PlanResponse — bit-identical to what
// a serial Server.Plan call returns for the same effective spec — or
// the item's error body; item failures never abort the batch. The
// whole line sequence is a pure function of the request and the
// platform contents: worker count, lane assignment, caching and
// coalescing never change a byte.
type BatchLine struct {
	Kind string `json:"kind"` // "plan" or "summary"

	// Plan-line fields. Index is the item's 0-based submission index
	// (meaningful on plan lines only; summary lines always carry 0).
	Index int           `json:"index"`
	Plan  *PlanResponse `json:"plan,omitempty"`
	Error *ErrorBody    `json:"error,omitempty"`

	// Summary-line fields.
	Items      int `json:"items,omitempty"`
	ErrorCount int `json:"errors,omitempty"`
}

// BatchStats is the batch section of GET /v1/stats, covering the
// synchronous endpoint and the async job runner together (both drain
// through the same engine).
type BatchStats struct {
	Requests int64 `json:"requests"`
	Items    int64 `json:"items"`
	Errors   int64 `json:"errors"`
}

// batchBodyLimit bounds a batch body: one worst-case escaped inline
// platform plus a megabyte of spec overhead. Batches at the intended
// scale reference registered platforms; inlining many large platforms
// in one batch is the one shape this cap refuses.
func (c Config) batchBodyLimit() int64 { return 2*c.maxPlatformBytes() + 1<<20 }

// decodeBatch decodes and shape-checks a batch body (shared by the
// synchronous endpoint and job submission).
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request) (*BatchRequest, error) {
	var req BatchRequest
	if err := decodeBody(w, r, s.cfg.batchBodyLimit(), &req); err != nil {
		return nil, err
	}
	if len(req.Items) == 0 {
		return nil, badRequest("a batch needs at least one item")
	}
	if max := s.cfg.maxBatchItems(); len(req.Items) > max {
		return nil, badRequest("batch has %d items, the limit is %d", len(req.Items), max)
	}
	return &req, nil
}

// runBatch executes a batch over the shard lanes and emits the full
// NDJSON line sequence (plan lines in submission order, then the
// summary) through emit. It returns the number of item errors.
//
// min(shards, items) workers claim items through fanout.Ordered, each
// pinned to one lane, and line i is emitted once items 0..i have all
// landed — the stream order is the submission order whatever the
// completion order. Every item goes through the full serving stack
// (registry resolution, plan cache, coalescer), so identical items hit
// the same cache entries and join the same flights as interactive
// /v1/plan traffic; workers only hold a shard mutex while actually
// solving, so batch items coalesce safely with interactive traffic in
// either direction.
func (s *Server) runBatch(ctx context.Context, req *BatchRequest, emit func(BatchLine)) int {
	n := len(req.Items)
	type itemResult struct {
		resp *PlanResponse
		err  error
	}
	results := make([]itemResult, n)
	startLane := int(s.batchLane.Add(1)-1) % len(s.pool.shards)
	itemErrors := 0
	fanout.Ordered(n, len(s.pool.shards), func(w int, claim iter.Seq[int]) {
		lane := (startLane + w) % len(s.pool.shards)
		for i := range claim {
			r := &results[i]
			if r.err = ctx.Err(); r.err != nil {
				continue
			}
			res, err := s.resolve(req.PlanSpec.merged(&req.Items[i].PlanSpec))
			if err != nil {
				r.err = err
				continue
			}
			r.resp, _, _, r.err = s.planResolved(ctx, res, lane, req.NoCache, false)
		}
	}, func(i int) {
		line := BatchLine{Kind: "plan", Index: i}
		if err := results[i].err; err != nil {
			_, body := errorBody(err)
			line.Error = &body
			itemErrors++
		} else {
			line.Plan = results[i].resp
		}
		emit(line)
	})
	emit(BatchLine{Kind: "summary", Items: n, ErrorCount: itemErrors})

	s.mu.Lock()
	s.batch.Requests++
	s.batch.Items += int64(n)
	s.batch.Errors += int64(itemErrors)
	s.mu.Unlock()
	return itemErrors
}

// handleBatch is POST /v1/plan:batch: the batch engine streaming
// straight onto the connection. A client hang-up mid-stream cancels
// the remaining items (they drain as canceled error lines instead of
// solving), so a dead batch does not hold the shard lanes against live
// traffic — cancellation never changes bytes a client actually reads,
// because a canceled request has no reader.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeBatch(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMillis)
	defer cancel()
	// One admission slot covers the whole fan-out, taken before the
	// stream starts so saturation is still a clean 429. Per-item
	// admission would deadlock: the items run on shard lanes this batch
	// already occupies.
	if s.limit != nil {
		if err := s.limit.acquire(ctx); err != nil {
			s.countDeadline(err)
			writeError(w, err)
			return
		}
		defer s.limit.release()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	s.runBatch(ctx, req, func(line BatchLine) {
		enc.Encode(line) //nolint:errcheck // client gone: keep draining, nothing to report
		if flusher != nil {
			flusher.Flush()
		}
	})
}
