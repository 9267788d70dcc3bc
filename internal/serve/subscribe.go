package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/live"
)

// SubscribeLine is one streamed update of GET
// /v1/platforms/{id}/subscribe: the platform version and either that
// version's plan — byte-identical to the POST /v1/plan body for the
// same spec against the same version, compactly encoded — or the error
// that version produced for the subscribed spec (e.g. a PATCH dropped
// the spec's source).
type SubscribeLine struct {
	Version int64           `json:"version"`
	Plan    json.RawMessage `json:"plan,omitempty"`
	Error   *ErrorBody      `json:"error,omitempty"`
	// Final marks the stream's terminator line: the server is shutting
	// down and closed the subscription deliberately. A stream that ends
	// without a final line was cut by the transport (or the client) —
	// reconnect-and-resume applies; after a final line it does not.
	Final bool `json:"final,omitempty"`
}

// LiveStats counts the live-platform traffic for GET /v1/stats.
type LiveStats struct {
	// Patches counts accepted PATCH /v1/platforms/{id} requests;
	// PatchOps the delta ops they applied.
	Patches  int64 `json:"patches"`
	PatchOps int64 `json:"patch_ops"`
	// StreamsStarted counts subscriptions ever opened; StreamsActive the
	// ones currently streaming.
	StreamsStarted int64 `json:"streams_started"`
	StreamsActive  int64 `json:"streams_active"`
	// Updates counts streamed lines across all subscriptions.
	Updates int64 `json:"updates"`
	// Loops is the number of distinct (platform, spec) replan loops
	// currently alive.
	Loops int `json:"loops"`
}

// streamKey identifies one replan loop: subscribers of the same
// platform and spec share a loop (and therefore one compute per
// version however many clients watch it). The source is the literal
// request value — an empty source follows the platform's default as it
// evolves, which is its own stream identity.
type streamKey struct {
	id      string
	source  string
	targets string
	bounds  uint8
	heurs   uint8
}

type hubLoop struct {
	loop *live.Loop
	refs int
}

// hub owns the server's replan loops, refcounted by subscriber: the
// first subscriber of a (platform, spec) starts the loop, the last one
// out closes it.
type hub struct {
	mu    sync.Mutex
	loops map[streamKey]*hubLoop
	// draining is set by closeAll: every existing loop has been closed
	// and every loop acquired from here on is closed before it is handed
	// out, so late subscribers get an immediate final line instead of a
	// stream that would outlive the drain.
	draining bool
}

func newHub() *hub { return &hub{loops: make(map[streamKey]*hubLoop)} }

func (h *hub) acquire(key streamKey, compute live.Compute) *live.Loop {
	h.mu.Lock()
	hl := h.loops[key]
	if hl == nil {
		hl = &hubLoop{loop: live.NewLoop(compute)}
		h.loops[key] = hl
	}
	hl.refs++
	draining := h.draining
	h.mu.Unlock()
	if draining {
		hl.loop.Close()
	}
	return hl.loop
}

// closeAll closes every replan loop (failing their subscribers' Next
// with live.ErrClosed, which the subscribe handlers turn into a final
// terminator line) and marks the hub draining. Entries stay in the map
// until their subscribers release them — Close is idempotent, so the
// last-out release closing again is harmless.
func (h *hub) closeAll() {
	h.mu.Lock()
	h.draining = true
	loops := make([]*live.Loop, 0, len(h.loops))
	for _, hl := range h.loops {
		loops = append(loops, hl.loop)
	}
	h.mu.Unlock()
	// Close outside the lock: it waits for loop goroutines that may be
	// mid-compute.
	for _, l := range loops {
		l.Close()
	}
}

func (h *hub) release(key streamKey) {
	h.mu.Lock()
	hl := h.loops[key]
	var done *live.Loop
	if hl != nil {
		hl.refs--
		if hl.refs <= 0 {
			delete(h.loops, key)
			done = hl.loop
		}
	}
	h.mu.Unlock()
	if done != nil {
		// Close outside the hub lock: it waits for the loop goroutine,
		// which may be mid-compute.
		done.Close()
	}
}

// notifyPlatform wakes every loop of the given platform and returns
// how many it woke. Notify never blocks, so this is safe to call from
// the PATCH handler with the hub lock held.
func (h *hub) notifyPlatform(id string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for key, hl := range h.loops {
		if key.id == id {
			hl.loop.Notify()
			n++
		}
	}
	return n
}

func (h *hub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.loops)
}

// liveCompute builds the compute closure of one subscription spec. It
// resolves the spec against the platform's *current* snapshot and runs
// the canonical serving path — cache, coalescer, shard pool, Reset
// evaluator — so the streamed plan bytes are bit-identical to an
// interactive POST /v1/plan against the same version, and (by the
// serving determinism contract) to a cold solve of that snapshot. This
// is also the cache *repair* half of PATCH invalidation: the recompute
// re-enters the plan cache under the new fingerprint.
func (s *Server) liveCompute(spec PlanSpec) live.Compute {
	return func() (int64, json.RawMessage, error) {
		res, err := s.resolve(&spec)
		if err != nil {
			// Label the failure with the current version when the platform
			// still exists (e.g. the spec's source was dropped); version 0
			// means the platform itself is gone.
			var v int64
			if e, ok := s.reg.get(spec.PlatformID); ok {
				v = e.version
			}
			return v, nil, err
		}
		// Replan computes run under the server's default timeout (no
		// client to carry a timeout_ms); a deadline expiry surfaces as an
		// error line for the version, and the next mutation retries.
		ctx, cancel := s.requestContext(context.Background(), 0)
		defer cancel()
		resp, _, _, err := s.planResolved(ctx, res, -1, false, false)
		if err != nil {
			return res.version, nil, err
		}
		raw, err := json.Marshal(resp)
		if err != nil {
			return res.version, nil, err
		}
		return res.version, raw, nil
	}
}

// splitList parses a comma-separated query value, distinguishing an
// absent parameter (nil — "all" for bounds/heuristics) from an
// explicitly empty one (empty slice — "none").
func splitList(q map[string][]string, name string) []string {
	vals, ok := q[name]
	if !ok {
		return nil
	}
	joined := strings.Join(vals, ",")
	if joined == "" {
		return []string{}
	}
	return strings.Split(joined, ",")
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := PlanSpec{
		PlatformID: r.PathValue("id"),
		Source:     q.Get("source"),
		Targets:    splitList(q, "targets"),
		Bounds:     splitList(q, "bounds"),
		Heuristics: splitList(q, "heuristics"),
	}
	var after int64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, badRequest("bad after version %q", v))
			return
		}
		after = n
	}
	// Validate against the current version so a bad spec fails with a
	// proper 4xx instead of an error line on a 200 stream.
	res, err := s.resolve(&spec)
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, badRequest("streaming unsupported by transport"))
		return
	}

	key := streamKey{
		id:      spec.PlatformID,
		source:  spec.Source,
		targets: strings.Join(spec.Targets, "\x00"),
		bounds:  res.bounds,
		heurs:   res.heurs,
	}
	loop := s.hub.acquire(key, s.liveCompute(spec))
	defer s.hub.release(key)
	sub := loop.Subscribe()
	defer sub.Cancel()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	s.bumpLive(func(ls *LiveStats) { ls.StreamsStarted++; ls.StreamsActive++ })
	defer s.bumpLive(func(ls *LiveStats) { ls.StreamsActive-- })

	ctx := r.Context()
	for {
		u, err := sub.Next(ctx)
		if err != nil {
			if errors.Is(err, live.ErrClosed) && ctx.Err() == nil {
				// The server closed the loop (drain) while the client is
				// still reading: send the stream's final terminator line so
				// the client can tell a deliberate shutdown from a cut
				// connection.
				writeSubscribeLine(w, flusher, sse, 0, SubscribeLine{Final: true})
			}
			// Otherwise the client is gone; the stream just ends.
			return
		}
		if u.Version <= after {
			// Resume semantics: the subscriber already has this version
			// from a previous stream.
			continue
		}
		line := SubscribeLine{Version: u.Version, Plan: u.Data}
		if u.Err != nil {
			_, body := errorBody(u.Err)
			line.Error = &body
		}
		if err := faultinject.StreamWrite(ctx); err != nil {
			return
		}
		if !writeSubscribeLine(w, flusher, sse, u.Version, line) {
			return
		}
		s.bumpLive(func(ls *LiveStats) { ls.Updates++ })
	}
}

// writeSubscribeLine encodes and flushes one stream line in the
// negotiated framing. SSE plan events are id-stamped with the version
// so EventSource clients resume with Last-Event-ID semantics; the
// final terminator is its own un-stamped "final" event. It reports
// whether the write reached the transport (false: the client is gone).
func writeSubscribeLine(w http.ResponseWriter, flusher http.Flusher, sse bool, version int64, line SubscribeLine) bool {
	payload, err := json.Marshal(line)
	if err != nil {
		return false
	}
	switch {
	case sse && line.Final:
		_, err = fmt.Fprintf(w, "event: final\ndata: %s\n\n", payload)
	case sse:
		_, err = fmt.Fprintf(w, "id: %d\nevent: plan\ndata: %s\n\n", version, payload)
	default:
		_, err = fmt.Fprintf(w, "%s\n", payload)
	}
	if err != nil {
		return false
	}
	flusher.Flush()
	return true
}

func (s *Server) bumpLive(f func(*LiveStats)) {
	s.mu.Lock()
	f(&s.live)
	s.mu.Unlock()
}
