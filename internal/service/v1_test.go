package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datalog"
)

const tcProgram = "S(x,y) :- E(x,y). S(x,y) :- E(x,z), S(z,y). goal S."

// TestV1Routes drives the whole versioned surface.
func TestV1Routes(t *testing.T) {
	s, err := New(Config{Universe: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	if w := post(t, h, "/v1/register", `{"name":"tc","program":"`+tcProgram+`"}`); w.Code != http.StatusOK {
		t.Fatalf("/v1/register: %d %s", w.Code, w.Body)
	}
	if w := post(t, h, "/v1/commit", `{"insert":[{"pred":"E","tuple":[0,1]},{"pred":"E","tuple":[1,2]}]}`); w.Code != http.StatusOK {
		t.Fatalf("/v1/commit: %d %s", w.Code, w.Body)
	}
	w := post(t, h, "/v1/query", `{"program":"tc"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/query: %d %s", w.Code, w.Body)
	}
	var q QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Origin != "materialized" || q.Count != 3 || q.Pred != "S" || q.Version != 1 {
		t.Fatalf("query response %+v", q)
	}
	if w := post(t, h, "/v1/unregister", `{"name":"tc"}`); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "true") {
		t.Fatalf("/v1/unregister: %d %s", w.Code, w.Body)
	}
	for _, path := range []string{"/v1/stats", "/v1/metrics"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rw.Code, rw.Body)
		}
	}
}

// TestErrorEnvelopeByPath pins the error shape: every failure carries the
// structured {code, message} envelope; the legacy paths are gone.
func TestErrorEnvelopeByPath(t *testing.T) {
	s, err := New(Config{Universe: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	w := post(t, h, "/v1/query", `{"program":"missing"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("/v1/query bad program: %d", w.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != "bad_request" || !strings.Contains(env.Message, "missing") {
		t.Fatalf("v1 envelope %+v", env)
	}

	if w = post(t, h, "/query", `{"program":"missing"}`); w.Code != http.StatusNotFound {
		t.Fatalf("legacy /query: %d, want 404", w.Code)
	}

	// Method errors carry the envelope too.
	req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: %d", rw.Code)
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != "method_not_allowed" {
		t.Fatalf("method error envelope %+v", env)
	}
}

// TestMetricsEndpoint exercises both exposition formats after known
// traffic, pinning the counter values and the Prometheus text layout.
func TestMetricsEndpoint(t *testing.T) {
	s, err := New(Config{Universe: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	post(t, h, "/v1/register", `{"name":"tc","program":"`+tcProgram+`"}`)
	post(t, h, "/v1/commit", `{"insert":[{"pred":"E","tuple":[0,1]},{"pred":"E","tuple":[1,2]}]}`)
	post(t, h, "/v1/query", `{"program":"tc"}`)             // published view: no evaluation
	post(t, h, "/v1/query", `{"program":"tc","version":0}`) // pinned older version: an evaluation
	post(t, h, "/v1/query", `{"program":"tc","version":0}`) // and another

	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK || rw.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("/v1/metrics JSON: %d %s", rw.Code, rw.Header().Get("Content-Type"))
	}
	var snap map[string]struct {
		Type  string  `json:"type"`
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON did not parse: %v\n%s", err, rw.Body)
	}
	for name, want := range map[string]float64{
		"datalog_commits_total":       1,
		"datalog_queries_total":       3,
		"datalog_view_reads_total":    1,
		"datalog_scratch_evals_total": 2,
		"datalog_store_version":       1,
		"datalog_published_version":   1,
		"datalog_programs_registered": 1,
		"datalog_query_errors_total":  0,
	} {
		got, ok := snap[name]
		if !ok {
			t.Fatalf("metrics JSON missing %s:\n%s", name, rw.Body)
		}
		if got.Value != want {
			t.Errorf("%s = %v, want %v", name, got.Value, want)
		}
	}
	if snap["datalog_eval_rounds_total"].Value <= 0 {
		t.Errorf("datalog_eval_rounds_total = %v, want > 0", snap["datalog_eval_rounds_total"].Value)
	}
	// The surface is pinned whole, so a block or series that is dropped —
	// or comes back — fails here: a memory-only service serves 35 series,
	// none of them a planner's, and /v1/stats these top-level keys and no
	// other.
	if len(snap) != 35 {
		t.Errorf("/v1/metrics serves %d series, want 35", len(snap))
	}
	for name := range snap {
		if strings.HasPrefix(name, "datalog_plan") {
			t.Errorf("/v1/metrics serves the planner series %s", name)
		}
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(rw.Body.Bytes(), &stats); err != nil {
		t.Fatalf("/v1/stats did not parse: %v\n%s", err, rw.Body)
	}
	var keys []string
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "commits executor magic oldest_version "+
		"programs queries scratch_evals snapshots storage stream subscribe universe version"; got != want {
		t.Errorf("/v1/stats keys:\n got %s\nwant %s", got, want)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/metrics?format=prometheus", nil)
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type %q", ct)
	}
	out := rw.Body.String()
	for _, want := range []string{
		"# TYPE datalog_commits_total counter",
		"datalog_commits_total 1",
		"# TYPE datalog_store_version gauge",
		"datalog_store_version 1",
		"# TYPE datalog_query_seconds histogram",
		`datalog_query_seconds_bucket{le="+Inf"} 3`,
		"datalog_query_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
	// The Accept header selects the text format too.
	req = httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if !strings.Contains(rw.Body.String(), "# TYPE datalog_commits_total counter") {
		t.Fatalf("Accept: text/plain did not select exposition text:\n%s", rw.Body)
	}
}

// TestQueryTimeout pins the per-query deadline: a from-scratch evaluation
// under an already-exhausted budget fails with DeadlineExceeded, and over
// HTTP the v1 envelope reports it as a 504.
func TestQueryTimeout(t *testing.T) {
	s, err := New(Config{Universe: 8, QueryTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	// Ad-hoc source forces a from-scratch evaluation, the path the
	// timeout governs.
	_, err = s.Query(QueryRequest{Source: tcProgram, Version: -1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query under 1ns budget: err = %v, want DeadlineExceeded", err)
	}

	w := post(t, s.Handler(), "/v1/query", `{"source":"`+tcProgram+`"}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("/v1/query under 1ns budget: %d %s", w.Code, w.Body)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != "deadline_exceeded" {
		t.Fatalf("timeout envelope %+v", env)
	}

	// Materialized reads of registered programs are unaffected: no
	// evaluation happens, so the exhausted budget never applies.
	if _, err := s.Register("tc", tcProgram); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil || len(res.Tuples) != 3 {
		t.Fatalf("materialized read under 1ns budget: %v %+v", err, res)
	}
}

// TestCloseAbortsAndRefuses runs concurrent from-scratch queries while
// the service shuts down (run under -race): in-flight evaluations abort
// via the lifetime context, later calls fail with ErrClosed, and nothing
// panics or deadlocks.
func TestCloseAbortsAndRefuses(t *testing.T) {
	s, err := New(Config{Universe: 64, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	facts := make([]datalog.Fact, 0, 63)
	for i := 0; i < 63; i++ {
		facts = append(facts, edge(i, i+1))
	}
	if _, err := s.Commit(facts, nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	started := make(chan struct{}, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case started <- struct{}{}:
				default:
				}
				_, err := s.Query(QueryRequest{Source: tcProgram, Version: 1})
				if err != nil {
					if errors.Is(err, ErrClosed) || errors.Is(err, context.Canceled) {
						return
					}
					t.Errorf("query during shutdown: %v", err)
					return
				}
			}
		}()
	}
	<-started
	s.Close()
	wg.Wait()

	if _, err := s.Query(QueryRequest{Source: tcProgram, Version: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Commit([]datalog.Fact{edge(0, 2)}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Register("late", tcProgram); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after Close: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestQueryContextCancelled pins client-disconnect behavior without HTTP:
// a context cancelled before the call returns context.Canceled.
func TestQueryContextCancelled(t *testing.T) {
	s, err := New(Config{Universe: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Commit([]datalog.Fact{edge(0, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.QueryContext(ctx, QueryRequest{Source: tcProgram, Version: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: %v, want context.Canceled", err)
	}
}
