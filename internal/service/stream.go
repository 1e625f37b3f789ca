package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/datalog"
	"repro/internal/magic"
	"repro/internal/plan"
	"repro/internal/stream"
)

// Pagination cursors. A cursor names the last tuple already delivered —
// its components comma-joined ("3,0,7") — and a resumed read returns the
// tuples strictly after it in the canonical datalog.CompareTuples order.
// Because every non-streaming origin (cache, published view, from-
// scratch evaluation, magic answers) returns that order, a cursor stays
// valid across repeated reads of the same version regardless of which
// origin serves the next page.

// encodeCursor renders a tuple as a resumption cursor.
func encodeCursor(t datalog.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// parseCursor decodes a cursor back into the tuple it names.
func parseCursor(c string) (datalog.Tuple, error) {
	parts := strings.Split(c, ",")
	t := make(datalog.Tuple, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("service: malformed cursor %q", c)
		}
		t[i] = v
	}
	return t, nil
}

// pageTuples slices one page out of a canonically sorted answer set:
// everything strictly after the cursor, at most limit rows (0 = all).
// The returned cursor is empty on the final page.
func pageTuples(sorted []datalog.Tuple, cursor string, limit int) ([]datalog.Tuple, string, error) {
	start := 0
	if cursor != "" {
		after, err := parseCursor(cursor)
		if err != nil {
			return nil, "", err
		}
		start = sort.Search(len(sorted), func(i int) bool {
			return datalog.CompareTuples(sorted[i], after) > 0
		})
	}
	page := sorted[start:]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
		return page, encodeCursor(page[len(page)-1]), nil
	}
	return page, "", nil
}

// QueryStream is one open streaming query: tuples are pulled one at a
// time and, on the streamed origin, produced as they are derived — the
// executor worker slot, the pinned snapshot and any buffered state are
// held until Close. The zero value is not usable; Service.QueryStream
// opens one.
type QueryStream struct {
	// Pred, Version, Origin and Goal mirror QueryResult. Origin "stream"
	// is the genuinely incremental path; "cache", "materialized", "eval"
	// and "magic" serve an already-complete sorted answer set tuple by
	// tuple.
	Pred    string
	Version int64
	Origin  string
	Goal    string
	// Sorted reports that tuples arrive in the canonical
	// datalog.CompareTuples order, which makes NextCursor exact. The
	// streamed origin emits derivation order and is not sorted: a limited
	// stream reports More without a cursor.
	Sorted bool

	s       *Service
	next    func() (datalog.Tuple, bool)
	errf    func() error
	cleanup []func()

	limit     int
	emitted   int
	last      datalog.Tuple
	ahead     datalog.Tuple
	haveAhead bool
	closed    bool
}

// Next returns the next answer tuple; false means the stream is done
// (exhausted, at its limit, failed — see Err — or closed).
func (q *QueryStream) Next() (datalog.Tuple, bool) {
	if q.closed || (q.limit > 0 && q.emitted >= q.limit) {
		return nil, false
	}
	var t datalog.Tuple
	var ok bool
	if q.haveAhead {
		t, ok, q.haveAhead = q.ahead, true, false
		q.ahead = nil
	} else {
		t, ok = q.next()
	}
	if !ok {
		return nil, false
	}
	q.emitted++
	q.last = t
	q.s.met.streamRows.Inc()
	if q.limit > 0 && q.emitted == q.limit {
		// Look one tuple ahead so More and NextCursor can report whether
		// the answer set continues past the limit.
		if t2, ok2 := q.next(); ok2 {
			q.ahead, q.haveAhead = t2, true
		}
	}
	return t, true
}

// Err reports the failure that ended the stream (context cancellation,
// timeout); nil after normal exhaustion.
func (q *QueryStream) Err() error { return q.errf() }

// More reports that the answer set continues past the limit the stream
// stopped at.
func (q *QueryStream) More() bool { return q.haveAhead }

// NextCursor returns the cursor resuming after the last delivered tuple.
// It is non-empty only on a Sorted stream that stopped at its limit with
// more answers available; the streamed (unordered) origin never has one.
func (q *QueryStream) NextCursor() string {
	if !q.Sorted || !q.haveAhead || q.last == nil {
		return ""
	}
	return encodeCursor(q.last)
}

// Close releases the stream's executor slot, evaluation context and
// buffered state. It is idempotent and must be called exactly once per
// opened stream (defer it).
func (q *QueryStream) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for i := len(q.cleanup) - 1; i >= 0; i-- {
		q.cleanup[i]()
	}
}

// QueryStream opens req as a pull stream of answer tuples.
//
// Requests that already have a complete sorted answer at hand — a
// registered program's published view at the latest version, cache hits,
// any request carrying a Cursor (cursors are defined only over the
// canonical sorted order), and recursive programs (which fall back to
// materialized evaluation) — serve that answer tuple by tuple with exact
// pagination. Everything else runs on the streaming executor
// (internal/stream): the non-recursive slice reachable from the predicate
// is compiled into an iterator tree over the pinned snapshot and answers
// are delivered as they are derived, with a reached Limit terminating
// evaluation early. Bound requests stream the seeded magic-set rewrite's
// answer predicate under the goal filter.
//
// The stream holds an executor worker slot (streamed and fallback-eval
// origins) for its whole life, so a slow consumer occupies a slot;
// Close releases it. Streamed results are not cached: they may be
// truncated and arrive unordered.
func (s *Service) QueryStream(ctx context.Context, req QueryRequest) (*QueryStream, error) {
	if err := s.root.Err(); err != nil {
		return nil, ErrClosed
	}
	s.queries.Add(1)
	s.met.queries.Inc()
	s.met.streamQueries.Inc()
	q, err := s.queryStream(ctx, req)
	if err != nil {
		s.met.queryErrors.Inc()
		return nil, err
	}
	s.met.streamsActive.Add(1)
	q.cleanup = append(q.cleanup, func() { s.met.streamsActive.Add(-1) })
	return q, nil
}

func (s *Service) queryStream(ctx context.Context, req QueryRequest) (*QueryStream, error) {
	q, err := s.resolveQuery(req.Program, req.Source, req.Pred, req.Version)
	if err != nil {
		return nil, err
	}
	if req.Limit < 0 {
		return nil, fmt.Errorf("service: negative limit %d", req.Limit)
	}

	// A cursor pins the canonical sorted order, so the request is served
	// from the complete sorted answer set (the published view, or a cache
	// hit on pages after the first) and streamed out from the page boundary.
	if req.Cursor != "" {
		res, err := s.queryContext(ctx, req)
		if err != nil {
			return nil, err
		}
		page, _, err := pageTuples(res.Tuples, req.Cursor, 0)
		if err != nil {
			return nil, err
		}
		return s.sliceStream(res, page, req.Limit), nil
	}

	if boundCount(req.Bind) > 0 {
		return s.goalStream(ctx, q, req)
	}

	// Sorted fast paths: the published view, then a cached result.
	if tuples, ok := s.readView(q); ok {
		res := QueryResult{Pred: q.pred, Version: q.version, Tuples: tuples, Origin: "materialized"}
		return s.sliceStream(res, tuples, req.Limit), nil
	}
	key := cacheKey{hash: q.hash, pred: q.pred, version: q.version}
	if tuples, ok := s.cache.get(key); ok {
		s.met.cacheHits.Inc()
		res := QueryResult{Pred: q.pred, Version: q.version, Tuples: tuples, Origin: "cache"}
		return s.sliceStream(res, tuples, req.Limit), nil
	}
	s.met.cacheMisses.Inc()

	snap, err := s.snapshotOf(q)
	if err != nil {
		return nil, err
	}
	return s.openStream(ctx, q.prog, snap, q.pred, q.pred, q.version, req, nil, "")
}

// goalStream streams a bound query: the magic-set rewrite (cached like
// goalQuery's) is seeded with the bound values and its answer predicate
// is streamed under the goal filter — the answer-projection stage of
// goal-directed evaluation, produced tuple by tuple.
func (s *Service) goalStream(ctx context.Context, q resolved, req QueryRequest) (*QueryStream, error) {
	prog, hash, pred, version := q.prog, q.hash, q.pred, q.version
	arity := prog.Arities()[pred]
	if len(req.Bind) != arity {
		return nil, fmt.Errorf("service: bind has %d positions, predicate %s has arity %d", len(req.Bind), pred, arity)
	}
	goal := datalog.Goal{Pred: pred, Bound: make([]bool, arity), Value: make([]int, arity)}
	for i, b := range req.Bind {
		if b != nil {
			goal.Bound[i] = true
			goal.Value[i] = *b
		}
	}
	s.met.goalQueries.Inc()

	rk := rewriteKey{hash: hash, pred: pred, adornment: magic.AdornmentOf(goal), sip: magic.BoundFirstSIP{}.Name()}
	rw, ok := s.rewrites.get(rk)
	if ok {
		s.met.rewriteHits.Inc()
	} else {
		s.met.rewriteMisses.Inc()
		var err error
		rw, err = magic.NewRewrite(prog, goal, magic.BoundFirstSIP{})
		if err != nil {
			return nil, err
		}
		s.rewrites.put(rk, rw)
	}
	seeded, err := rw.Seeded(goal)
	if err != nil {
		return nil, err
	}
	snap, err := s.snapshotOf(q)
	if err != nil {
		return nil, err
	}
	return s.openStream(ctx, seeded, snap, rw.GoalPred, pred, version, req, &goal, goal.String())
}

// openStream runs prog's pred over snap, read in place, on the streaming
// executor; a recursive slice falls back to materialized evaluation.
// filter restricts answers to the goal's bound positions (bound
// requests); showPred and goalStr are echoed on the stream (a bound
// query evaluates the rewrite's answer predicate but reports the
// original one).
func (s *Service) openStream(ctx context.Context, prog *datalog.Program, snap *Snapshot, pred, showPred string, version int64, req QueryRequest, filter *datalog.Goal, goalStr string) (*QueryStream, error) {
	opt := stream.Options{Eval: s.optsFor(snap), Filter: filter}
	var pp *plan.ProgramPlan
	if s.planner != nil {
		pp, _ = s.planner.PlanProgram(prog, snap.Stats)
		opt.Plan = pp
	}
	if req.Limit > 0 {
		// One past the caller's limit so the wrapper's lookahead can
		// report whether the answer set was truncated.
		opt.Limit = req.Limit + 1
	}

	sctx, done := s.scoped(ctx, s.cfg.QueryTimeout)
	st, err := stream.Open(sctx, prog, snap.DB, pred, opt)
	if err == nil {
		// The evaluation spans the whole drain, so the worker slot is
		// held from here until Close.
		if aerr := s.exec.acquire(sctx); aerr != nil {
			st.Close()
			done()
			return nil, aerr
		}
		s.scratchEval.Add(1)
		s.met.scratchEvals.Inc()
		q := &QueryStream{
			Pred: showPred, Version: version, Origin: "stream", Goal: goalStr, Sorted: false,
			s:     s,
			next:  st.Next,
			errf:  st.Err,
			limit: req.Limit,
		}
		q.cleanup = append(q.cleanup, done, s.exec.release, func() {
			c := st.Counters()
			s.met.streamPeakBuf.SetMax(c.PeakBuffered)
			st.Close()
		})
		return q, nil
	}
	done()
	if !errors.Is(err, stream.ErrRecursive) {
		return nil, err
	}

	// Recursive slice: materialize through the ordinary query path (which
	// caches the sorted answer set) and stream the slice out.
	s.met.streamFallbacks.Inc()
	fb := req
	fb.Cursor, fb.Limit = "", 0
	res, err := s.queryContext(ctx, fb)
	if err != nil {
		return nil, err
	}
	return s.sliceStream(res, res.Tuples, req.Limit), nil
}

// sliceStream wraps an already-complete, canonically sorted answer slice
// as a QueryStream with exact cursors.
func (s *Service) sliceStream(res QueryResult, page []datalog.Tuple, limit int) *QueryStream {
	i := 0
	pred := res.Pred
	return &QueryStream{
		Pred: pred, Version: res.Version, Origin: res.Origin, Goal: res.Goal, Sorted: true,
		s: s,
		next: func() (datalog.Tuple, bool) {
			if i >= len(page) {
				return nil, false
			}
			t := page[i]
			i++
			return t, true
		},
		errf:  func() error { return nil },
		limit: limit,
	}
}
