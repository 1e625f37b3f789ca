package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/datalog"
)

// Handler returns the HTTP front end. The versioned surface lives under
// /v1 and is the one to build against:
//
//	POST /v1/register    {"name": "tc", "program": "S(x,y) :- E(x,y). ..."}
//	POST /v1/unregister  {"name": "tc"}
//	POST /v1/commit      {"insert": [{"pred":"E","tuple":[0,1]}], "delete": [...]}
//	POST /v1/query       {"program": "tc", "pred": "S", "version": 3, "tuple": [0,1]}
//	POST /v1/query       {"program": "tc", "pred": "S", "bind": [0, null]}   (goal-directed)
//	GET  /v1/subscribe   ?program=tc&preds=S&goal=S(0,_)&from=-1  (SSE delta stream)
//	GET  /v1/stats
//	GET  /v1/metrics     (?format=prometheus or Accept: text/plain for exposition text)
//
// /v1/query additionally accepts "limit", "cursor" and "stream": limited
// responses carry next_cursor for stable pagination (tuples are in the
// canonical component-sorted order), and "stream": true — or an Accept
// header of application/x-ndjson — switches the response to NDJSON: a
// header line, one JSON array per tuple written as it is produced, and a
// trailer line with the count and pagination state. A client that
// disconnects mid-stream cancels the evaluation.
//
// Errors under /v1 are the structured envelope {"code": ..., "message":
// ...}. The original unversioned paths (/register, /commit, ...) remain
// as deprecated aliases with the legacy {"error": ...} shape so existing
// clients keep working: they serve the same handlers but mark every
// response with a Deprecation header and a Link to the /v1 successor,
// and the first such request logs a warning.
//
// Commits apply deletions then insertions atomically and advance the EDB
// version; queries default to the latest version and the program's goal,
// run under the request's context, and abort within one fixpoint round
// when the client disconnects. Handlers validate rather than panic,
// which FuzzHTTPQuery/FuzzHTTPCommit enforce.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		path string
		h    http.HandlerFunc
	}{
		{"/register", s.handleRegister},
		{"/unregister", s.handleUnregister},
		{"/commit", s.handleCommit},
		{"/query", s.handleQuery},
		{"/explain", s.handleExplain},
		{"/stats", s.handleStats},
		{"/metrics", s.handleMetrics},
	}
	for _, rt := range routes {
		mux.HandleFunc("/v1"+rt.path, rt.h)
		mux.HandleFunc(rt.path, s.deprecated(rt.path, rt.h))
	}
	// Subscriptions were born versioned; no legacy alias.
	mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	return mux
}

// handleSubscribe serves one live delta stream as Server-Sent Events:
//
//	GET /v1/subscribe?program=tc&preds=S,T&goal=S(0,_)&from=-1&buffer=128
//
// program names a registration (required). preds restricts events to a
// comma-separated predicate list; goal restricts the goal predicate's
// deltas to a bound pattern (datalog.ParseGoal syntax, e.g. S(0,_)).
// from >= 0 resumes: deltas of every retained commit after that version
// are replayed before live delivery (a from below the history window
// ends the stream immediately with a gap event). buffer overrides the
// per-subscriber queue size.
//
// Each SSE frame is `event: <type>`, `id: <version>`, `data: <SubEvent
// JSON>`. The stream opens with a hello event anchoring the version,
// delivers one delta event per commit that changes the subscribed
// slice, and ends either silently (client disconnect, shutdown) or
// with a terminal gap event naming the version to re-snapshot at.
func (s *Service) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	req := SubscribeRequest{Program: q.Get("program"), FromVersion: -1}
	if p := q.Get("preds"); p != "" {
		req.Preds = strings.Split(p, ",")
	}
	if g := q.Get("goal"); g != "" {
		goal, err := datalog.ParseGoal(g)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		req.Goal = &goal
	}
	if f := q.Get("from"); f != "" {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, errors.New("service: from must be an integer version"))
			return
		}
		req.FromVersion = v
	}
	if b := q.Get("buffer"); b != "" {
		v, err := strconv.Atoi(b)
		if err != nil || v < 0 {
			writeError(w, r, http.StatusBadRequest, errors.New("service: buffer must be a non-negative integer"))
			return
		}
		req.Buffer = v
	}
	sub, err := s.Subscribe(req)
	if err != nil {
		writeError(w, r, errorStatus(err), err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(ev SubEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Version, data); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.Events:
			if !ok {
				// A dropped subscriber gets its terminal gap frame so the
				// client knows the stream ended with lost continuity, not a
				// clean shutdown.
				if gap, gapped := sub.Gap(); gapped {
					emit(gap)
				}
				return
			}
			if !emit(ev) {
				return
			}
		}
	}
}

// deprecated wraps a legacy unversioned route: the response advertises
// the deprecation (RFC 9745 Deprecation header) and its /v1 successor,
// the hit is counted in datalog_deprecated_requests_total, and the first
// hit across all legacy routes logs one warning.
func (s *Service) deprecated(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "</v1"+path+`>; rel="successor-version"`)
		s.met.deprecatedReqs.Inc()
		s.deprecateOnce.Do(func() {
			slog.Warn("deprecated unversioned API path used; migrate to /v1",
				slog.String("path", path))
		})
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// isV1 reports whether the request came in on the versioned surface and
// should get the structured error envelope.
func isV1(r *http.Request) bool {
	return strings.HasPrefix(r.URL.Path, "/v1/")
}

// errorCode maps an HTTP status to the envelope's stable machine code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// errorStatus picks the status for a failed request: context exhaustion
// and shutdown are availability failures, everything else the handlers
// produce is a caller error.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	if isV1(r) {
		writeJSON(w, status, ErrorEnvelope{Code: errorCode(status), Message: err.Error()})
		return
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		writeError(w, r, http.StatusMethodNotAllowed, errors.New("use "+method))
		return false
	}
	return true
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req RegisterRequest
	if err := DecodeJSON(r.Body, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	info, err := s.RegisterContext(r.Context(), req.Name, req.Program)
	if err != nil {
		writeError(w, r, errorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, RegisterResponse{
		Name: info.Name, Hash: info.Hash, Version: info.Version, IDBSizes: info.IDBSizes,
	})
}

func (s *Service) handleUnregister(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := DecodeJSON(r.Body, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	removed, err := s.Unregister(req.Name)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"removed": removed})
}

func (s *Service) handleCommit(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req CommitRequest
	if err := DecodeJSON(r.Body, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	insert, err := factsFromWire(req.Insert)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	del, err := factsFromWire(req.Delete)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	info, err := s.Commit(insert, del)
	if err != nil {
		writeError(w, r, errorStatus(err), err)
		return
	}
	resp := CommitResponse{Version: info.Version, Inserted: info.Inserted, Deleted: info.Deleted, Dropped: info.Dropped}
	if len(info.Maintained) > 0 {
		resp.Maintained = map[string]int64{}
		for name, d := range info.Maintained {
			resp.Maintained[name] = d.Nanoseconds()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req QueryRequestJSON
	if err := DecodeJSON(r.Body, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	version := int64(-1)
	if req.Version != nil {
		version = *req.Version
	}
	if req.Stream || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		s.handleQueryStream(w, r, req, version)
		return
	}
	res, err := s.QueryContext(r.Context(), QueryRequest{
		Program: req.Program, Source: req.Source, Pred: req.Pred, Version: version,
		Bind: req.Bind, Limit: req.Limit, Cursor: req.Cursor,
	})
	if err != nil {
		writeError(w, r, errorStatus(err), err)
		return
	}
	resp := QueryResponse{Pred: res.Pred, Version: res.Version, Count: len(res.Tuples), Origin: res.Origin, Goal: res.Goal, NextCursor: res.NextCursor}
	if res.GoalStats != nil {
		demand := res.GoalStats.DemandFacts
		resp.DemandFacts = &demand
	}
	if req.Tuple != nil {
		has := false
		for _, t := range res.Tuples {
			if len(t) != len(req.Tuple) {
				continue
			}
			same := true
			for i := range t {
				if t[i] != req.Tuple[i] {
					same = false
					break
				}
			}
			if same {
				has = true
				break
			}
		}
		resp.Has = &has
	} else {
		resp.Tuples = tuplesToWire(res.Tuples)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQueryStream serves one query as NDJSON: a StreamHeaderJSON line,
// one JSON array per answer tuple flushed as it is produced, and a
// StreamTrailerJSON line. Tuples stream straight out of the pull
// iterator, so the client sees first answers before evaluation finishes
// and a disconnect (r.Context() ends) cancels the evaluation within one
// context-poll interval.
func (s *Service) handleQueryStream(w http.ResponseWriter, r *http.Request, req QueryRequestJSON, version int64) {
	if req.Tuple != nil {
		writeError(w, r, http.StatusBadRequest,
			errors.New("service: tuple membership is not available on a streamed response"))
		return
	}
	q, err := s.QueryStream(r.Context(), QueryRequest{
		Program: req.Program, Source: req.Source, Pred: req.Pred, Version: version,
		Bind: req.Bind, Limit: req.Limit, Cursor: req.Cursor,
	})
	if err != nil {
		writeError(w, r, errorStatus(err), err)
		return
	}
	defer q.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	_ = enc.Encode(StreamHeaderJSON{Pred: q.Pred, Version: q.Version, Origin: q.Origin, Goal: q.Goal, Sorted: q.Sorted})
	flush()
	count := 0
	for {
		t, ok := q.Next()
		if !ok {
			break
		}
		if err := enc.Encode([]int(t)); err != nil {
			return // client gone; Close cancels the evaluation
		}
		count++
		flush()
	}
	trailer := StreamTrailerJSON{Count: count}
	if err := q.Err(); err != nil {
		trailer.Error = err.Error()
	} else if q.More() {
		if cur := q.NextCursor(); cur != "" {
			trailer.NextCursor = cur
		} else {
			trailer.Truncated = true
		}
	}
	_ = enc.Encode(trailer)
	flush()
}

// handleExplain plans a query and reports the chosen join orders with
// estimated and actual row counts (POST /v1/explain, same request shape
// as /v1/query minus the membership tuple).
func (s *Service) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req ExplainRequestJSON
	if err := DecodeJSON(r.Body, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	version := int64(-1)
	if req.Version != nil {
		version = *req.Version
	}
	res, err := s.ExplainContext(r.Context(), ExplainRequest{
		Program: req.Program, Source: req.Source, Pred: req.Pred, Version: version,
		Bind: req.Bind,
	})
	if err != nil {
		writeError(w, r, errorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, explainToWire(res))
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the obs registry: JSON by default, Prometheus text
// exposition when asked for via ?format=prometheus or an Accept header
// preferring text/plain.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	wantProm := r.URL.Query().Get("format") == "prometheus" ||
		strings.HasPrefix(r.Header.Get("Accept"), "text/plain")
	if wantProm {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.reg.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// statusRecorder captures the status code a handler writes so the logging
// middleware can report it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the wrapped writer so streaming handlers (SSE,
// NDJSON) still reach the client incrementally behind the logging
// middleware — embedding the interface hides the underlying Flush, and
// without it an open-ended /v1/subscribe response never leaves the
// server's buffer.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// LogRequests wraps h with structured request logging: one slog line per
// request carrying the request id (X-Request-Id, generated when absent
// and echoed back either way), method, path, status, and duration.
func LogRequests(logger *slog.Logger, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r)
		logger.Info("request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", time.Since(start)),
		)
	})
}

// newRequestID returns 8 random bytes as hex — unique enough to correlate
// a log line with a client-side trace.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}
