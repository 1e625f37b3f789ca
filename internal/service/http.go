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
	"sort"
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
// Errors are the structured envelope {"code": ..., "message": ...}. The
// unversioned paths (/register, /commit, ...) that /v1 replaced have served
// their deprecation cycle and are gone: they answer 404.
//
// Commits apply deletions then insertions atomically and advance the EDB
// version; queries default to the latest version and the program's goal,
// run under the request's context, and abort within one fixpoint round
// when the client disconnects. Handlers validate rather than panic,
// which FuzzHTTPQuery/FuzzHTTPCommit enforce.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", s.handleRegister)
	mux.HandleFunc("/v1/unregister", s.handleUnregister)
	mux.HandleFunc("/v1/commit", s.handleCommit)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/explain", s.handleExplain)
	mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
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
			writeError(w, http.StatusBadRequest, err)
			return
		}
		req.Goal = &goal
	}
	if f := q.Get("from"); f != "" {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, errors.New("service: from must be an integer version"))
			return
		}
		req.FromVersion = v
	}
	if b := q.Get("buffer"); b != "" {
		v, err := strconv.Atoi(b)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, errors.New("service: buffer must be a non-negative integer"))
			return
		}
		req.Buffer = v
	}
	sub, err := s.Subscribe(req)
	if err != nil {
		writeError(w, errorStatus(err), err)
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
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

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorEnvelope{Code: errorCode(status), Message: err.Error()})
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use "+method))
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
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.RegisterContext(r.Context(), req.Name, req.Program)
	if err != nil {
		writeError(w, errorStatus(err), err)
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
		writeError(w, http.StatusBadRequest, err)
		return
	}
	removed, err := s.Unregister(req.Name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
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
		writeError(w, http.StatusBadRequest, err)
		return
	}
	insert, err := factsFromWire(req.Insert)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	del, err := factsFromWire(req.Delete)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.Commit(insert, del)
	if err != nil {
		writeError(w, errorStatus(err), err)
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

// decodeQuery strictly decodes the body /v1/query and /v1/explain share;
// an omitted version means the latest.
func decodeQuery(r *http.Request) (QueryRequestJSON, QueryRequest, error) {
	var wire QueryRequestJSON
	if err := DecodeJSON(r.Body, &wire); err != nil {
		return wire, QueryRequest{}, err
	}
	req := QueryRequest{
		Program: wire.Program, Source: wire.Source, Pred: wire.Pred, Version: -1,
		Bind: wire.Bind, Limit: wire.Limit, Cursor: wire.Cursor,
	}
	if wire.Version != nil {
		req.Version = *wire.Version
	}
	return wire, req, nil
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	wire, req, err := decodeQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if wire.Stream || strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		if wire.Tuple != nil {
			writeError(w, http.StatusBadRequest,
				errors.New("service: tuple membership is not available on a streamed response"))
			return
		}
		s.handleQueryStream(w, r, req)
		return
	}
	res, after, err := s.query(r.Context(), req)
	if err == nil && wire.Tuple != nil && len(wire.Tuple) != res.Arity {
		err = fmt.Errorf("service: tuple has %d components, predicate %s has arity %d", len(wire.Tuple), res.Pred, res.Arity)
	}
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	resp := QueryResponse{Pred: res.Pred, Version: res.Version, Origin: res.Origin, Goal: res.Goal}
	if res.Goal != "" {
		demand := res.DemandFacts
		resp.DemandFacts = &demand
	}
	switch {
	case wire.Tuple != nil && res.view != nil && req.Limit == 0 && after == nil:
		// Membership in a whole view: a search of its directory and of one
		// chunk, with no page built.
		has := res.view.Has(wire.Tuple)
		resp.Count, resp.Has = res.view.Len(), &has
	case wire.Tuple != nil:
		// The page is canonically sorted by contract: binary search.
		var page []datalog.Tuple
		page, resp.NextCursor = res.page(after, req.Limit)
		want := datalog.Tuple(wire.Tuple)
		i := sort.Search(len(page), func(i int) bool { return datalog.CompareTuples(page[i], want) >= 0 })
		has := i < len(page) && datalog.CompareTuples(page[i], want) == 0
		resp.Count, resp.Has = len(page), &has
	case res.view != nil:
		// The page is built once, as the wire's rows, over the view's ints.
		resp.Tuples, resp.NextCursor = viewPage[[]int](res.view, after, req.Limit)
		resp.Count = len(resp.Tuples)
	default:
		page, cursor := res.page(after, req.Limit)
		resp.Tuples, resp.NextCursor, resp.Count = tuplesToWire(page), cursor, len(page)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQueryStream serves one query as NDJSON: a StreamHeaderJSON line,
// one JSON array per answer tuple flushed as it is produced, and a
// StreamTrailerJSON line. Tuples stream straight out of the pull
// iterator, so the client sees first answers before evaluation finishes
// and a disconnect (r.Context() ends) cancels the evaluation within one
// context-poll interval.
func (s *Service) handleQueryStream(w http.ResponseWriter, r *http.Request, req QueryRequest) {
	q, err := s.QueryStream(r.Context(), req)
	if err != nil {
		writeError(w, errorStatus(err), err)
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
// estimated and actual row counts (POST /v1/explain). The body is
// /v1/query's; the fields that shape a response rather than a plan — tuple,
// limit, cursor, stream — are refused, as every unknown field is.
func (s *Service) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	wire, req, err := decodeQuery(r)
	if err == nil && (wire.Tuple != nil || wire.Limit != 0 || wire.Cursor != "" || wire.Stream) {
		err = errors.New("service: explain takes no tuple, limit, cursor or stream")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.ExplainContext(r.Context(), req)
	if err != nil {
		writeError(w, errorStatus(err), err)
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
