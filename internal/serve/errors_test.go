package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestErrorEnvelopeAcrossEndpoints is the contract test for the
// unified v1 error surface: every endpoint's failure is the structured
// envelope {"error":{"code":...,"message":...}} with a machine-
// readable code, and the HTTP statuses are exactly the historical
// ones — the envelope changed the body shape, never the transport.
func TestErrorEnvelopeAcrossEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	uploadDiamond(t, s, "d")

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantCode   ErrorCode
	}{
		{
			"plan unknown platform",
			http.MethodPost, "/v1/plan",
			PlanRequest{PlanSpec: PlanSpec{PlatformID: "missing", Targets: []string{"t1"}}},
			http.StatusNotFound, CodeNotFound,
		},
		{
			"plan conflicting platform addressing",
			http.MethodPost, "/v1/plan",
			PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Platform: diamondText, Targets: []string{"t1"}}},
			http.StatusBadRequest, CodePlatformConflict,
		},
		{
			"plan no targets",
			http.MethodPost, "/v1/plan",
			PlanRequest{PlanSpec: PlanSpec{PlatformID: "d"}},
			http.StatusBadRequest, CodeBadRequest,
		},
		{
			"plan unknown bound",
			http.MethodPost, "/v1/plan",
			PlanRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}, Bounds: []string{"nope"}}},
			http.StatusBadRequest, CodeBadRequest,
		},
		{
			"upload empty platform",
			http.MethodPost, "/v1/platforms",
			UploadRequest{Platform: ""},
			http.StatusBadRequest, CodeBadRequest,
		},
		{
			"upload non-finite edge cost",
			http.MethodPost, "/v1/platforms",
			UploadRequest{Platform: "edge a b NaN\n"},
			http.StatusBadRequest, CodeBadRequest,
		},
		{
			"get unknown platform",
			http.MethodGet, "/v1/platforms/nope", nil,
			http.StatusNotFound, CodeNotFound,
		},
		{
			"whatif unknown platform",
			http.MethodPost, "/v1/whatif",
			WhatifRequest{PlanSpec: PlanSpec{PlatformID: "missing", Targets: []string{"t1"}}},
			http.StatusNotFound, CodeNotFound,
		},
		{
			"whatif rejects bound subsets",
			http.MethodPost, "/v1/whatif",
			WhatifRequest{PlanSpec: PlanSpec{PlatformID: "d", Targets: []string{"t1"}, Bounds: []string{"lb"}}},
			http.StatusBadRequest, CodeBadRequest,
		},
		{
			"batch without items",
			http.MethodPost, "/v1/plan:batch",
			BatchRequest{PlanSpec: PlanSpec{PlatformID: "d"}},
			http.StatusBadRequest, CodeBadRequest,
		},
		{
			"job submit without items",
			http.MethodPost, "/v1/jobs",
			BatchRequest{PlanSpec: PlanSpec{PlatformID: "d"}},
			http.StatusBadRequest, CodeBadRequest,
		},
		{
			"poll unknown job",
			http.MethodGet, "/v1/jobs/job-404", nil,
			http.StatusNotFound, CodeNotFound,
		},
		{
			"cancel unknown job",
			http.MethodDelete, "/v1/jobs/job-404", nil,
			http.StatusNotFound, CodeNotFound,
		},
		{
			"stream unknown job",
			http.MethodGet, "/v1/jobs/job-404/stream", nil,
			http.StatusNotFound, CodeNotFound,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := doJSON(t, s, tc.method, tc.path, tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", w.Code, tc.wantStatus, w.Body.String())
			}
			env := decodeJSON[ErrorEnvelope](t, w)
			if env.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestMalformedBodyEnvelope: even JSON-level failures (before any
// validation) speak the envelope.
func TestMalformedBodyEnvelope(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	for _, path := range []string{"/v1/plan", "/v1/platforms", "/v1/whatif", "/v1/plan:batch", "/v1/jobs"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"truncated`)))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, w.Code)
			continue
		}
		env := decodeJSON[ErrorEnvelope](t, w)
		if env.Error.Code != CodeBadRequest {
			t.Errorf("%s: code %q", path, env.Error.Code)
		}
	}
}
