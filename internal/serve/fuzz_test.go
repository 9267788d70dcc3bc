package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzTreeText is the 4-edge tree of the daemon recipes: S feeds a and
// b, a feeds c and d.
const fuzzTreeText = "edge S a 2\nedge S b 3\nedge a c 1\nedge a d 4\n"

// v1Routes are the request-decoding v1 endpoints FuzzV1Requests drives,
// each with the body type its handler decodes.
var v1Routes = []struct {
	method, path string
	decodes      func([]byte) error
}{
	{http.MethodPost, "/v1/plan", decodesAs[PlanRequest]},
	{http.MethodPost, "/v1/plan:batch", decodesAs[BatchRequest]},
	{http.MethodPost, "/v1/whatif", decodesAs[WhatifRequest]},
	{http.MethodPatch, "/v1/platforms/tree", decodesAs[PatchRequest]},
}

// decodesAs decodes body the way decodeBody does (one JSON value, no
// unknown fields) and returns the decoder's verdict.
func decodesAs[T any](body []byte) error {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(&v)
}

// codeStatus maps every documented top-level error code to its HTTP
// status (CodeCanceled only ever appears inside streamed lines).
var codeStatus = map[ErrorCode]int{
	CodeBadRequest:       http.StatusBadRequest,
	CodeNotFound:         http.StatusNotFound,
	CodePlatformConflict: http.StatusBadRequest,
	CodeSaturated:        http.StatusTooManyRequests,
	CodeDeadline:         http.StatusServiceUnavailable,
	CodeInternal:         http.StatusInternalServerError,
}

// FuzzV1Requests sends arbitrary bodies to the plan, batch, what-if and
// patch endpoints of an in-process server holding the 4-edge tree. No
// handler may panic; every response is either 2xx, with each streamed
// line a JSON value whose error object, if any, has a documented code,
// or the v1 error envelope with a documented code and its status; a body the request decoder rejects is a 400
// bad_request; and no body is a 500 internal, which would mean a
// client-controlled input got past validation into the solve stack.
func FuzzV1Requests(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"platform_id":"tree","targets":["c","d","b"]}`},
		{0, `{"platform_id":"tree","targets":["c"],"bounds":["lb"],"heuristics":["Multisource MC"]}`},
		{0, `{"platform":"edge S x 1\nedge x y 2\n","source":"S","targets":["y"]}`},
		{0, `{"platform_id":"tree","platform":"edge S a 1\n","targets":["a"]}`},
		{0, `{"platform_id":"tree","targets":["c","c"]}`},
		{0, `{"platform_id":"tree","targets":["S"],"bounds":["nope"]}`},
		{1, `{"platform_id":"tree","items":[{"targets":["c"]},{"targets":["zz"]},{"targets":["d"],"heuristics":[]}]}`},
		{1, `{"items":[]}`},
		{2, `{"platform_id":"tree","targets":["c","d"],"edge_factors":[0,4,0.5]}`},
		{2, `{"platform_id":"tree","targets":["c"],"sources":["a","b"],"fail_nodes":["a"],"timeout_ms":1}`},
		{2, `{"platform_id":"tree","targets":["d"],"edge_factors":[-1,1e308]}`},
		{3, `{"ops":[{"op":"scale_edge_cost","from":"a","to":"c","factor":2}]}`},
		{3, `{"ops":[{"op":"add_node","node":"e"},{"op":"add_edge","from":"a","to":"e","cost":0.5}]}`},
		{3, `{"ops":[{"op":"disable_edge","edge":7}]}`},
		{3, `{"ops":[{"op":"set_edge_cost","edge":0,"cost":0}]}`},
		{3, `{"ops":[{"op":"drop_node","node":"S"}]}`},
		{0, `{"targets":`},
		{1, `[]`},
		{2, `null`},
		{3, `{"ops":[{"op":"bogus","extra":1}]}`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		if len(body) > 4096 {
			t.Skip()
		}
		rt := v1Routes[int(route)%len(v1Routes)]
		s := New(Config{Shards: 2})
		if up := doJSON(t, s, http.MethodPost, "/v1/platforms", UploadRequest{ID: "tree", Source: "S", Platform: fuzzTreeText}); up.Code/100 != 2 {
			t.Fatalf("upload: %d %s", up.Code, up.Body)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body)))
		if n := s.panics.Load(); n > 0 {
			t.Fatalf("%s %s: %d handler panics, response %d %s", rt.method, rt.path, n, w.Code, w.Body)
		}
		if w.Code/100 == 2 {
			// The whole body is either one indented JSON value or NDJSON
			// lines; both decode as a stream of values. A streamed item
			// that failed carries the error object of the envelope.
			dec := json.NewDecoder(bytes.NewReader(w.Body.Bytes()))
			for dec.More() {
				var v struct {
					Error *ErrorBody `json:"error"`
				}
				if err := dec.Decode(&v); err != nil {
					t.Fatalf("%s %s: %d body is not JSON (%v): %s", rt.method, rt.path, w.Code, err, w.Body)
				}
				if e := v.Error; e != nil {
					if _, ok := codeStatus[e.Code]; (!ok && e.Code != CodeCanceled) || e.Message == "" {
						t.Fatalf("%s %s: streamed error with code %q, message %q", rt.method, rt.path, e.Code, e.Message)
					}
				}
			}
			return
		}
		var env ErrorEnvelope
		dec := json.NewDecoder(bytes.NewReader(w.Body.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("%s %s: %d body is not the error envelope (%v): %s", rt.method, rt.path, w.Code, err, w.Body)
		}
		want, ok := codeStatus[env.Error.Code]
		if !ok || want != w.Code || env.Error.Message == "" {
			t.Fatalf("%s %s: status %d with code %q, message %q", rt.method, rt.path, w.Code, env.Error.Code, env.Error.Message)
		}
		if rt.decodes(body) != nil && env.Error.Code != CodeBadRequest {
			t.Fatalf("%s %s: undecodable body answered %d %q: %s", rt.method, rt.path, w.Code, env.Error.Code, env.Error.Message)
		}
		if env.Error.Code == CodeInternal {
			t.Fatalf("%s %s: 500 internal: %s (body %q)", rt.method, rt.path, env.Error.Message, body)
		}
	})
}
