package service

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/datalog"
	"repro/internal/stream"
)

// Pagination cursors. A cursor names the last tuple already delivered —
// its components comma-joined ("3,0,7"), one per argument of the predicate
// — and a resumed read returns the tuples strictly after it in the
// canonical datalog.CompareTuples order. Because every non-streaming origin
// (published view, from-scratch evaluation, magic answers) returns that
// order, a cursor stays valid across repeated reads of the same version.

// encodeCursor renders a tuple as a resumption cursor.
func encodeCursor(t datalog.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// parseCursor decodes a cursor back into the tuple it names; resolve checks
// its length against the predicate's arity.
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
// everything strictly after the tuple after (nil: from the start), at most
// limit rows (0 = all). The returned cursor is empty on the final page.
func pageTuples(sorted []datalog.Tuple, after datalog.Tuple, limit int) ([]datalog.Tuple, string) {
	start := 0
	if after != nil {
		start = sort.Search(len(sorted), func(i int) bool {
			return datalog.CompareTuples(sorted[i], after) > 0
		})
	}
	page := sorted[start:]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
		return page, encodeCursor(page[len(page)-1])
	}
	return page, ""
}

// viewPage is pageTuples over a published view, with the page built as
// rows of type T: datalog.Tuple in process, []int for the JSON wire.
func viewPage[T ~[]int](v *datalog.View, after datalog.Tuple, limit int) ([]T, string) {
	page, more := datalog.ViewPage[T](v, after, limit)
	if !more {
		return page, ""
	}
	return page, encodeCursor(datalog.Tuple(page[len(page)-1]))
}

// QueryStream is one open streaming query: tuples are pulled one at a
// time and, on the streamed origin, produced as they are derived — the
// executor worker slot, the pinned snapshot and any buffered state are
// held until Close. The zero value is not usable; Service.QueryStream
// opens one.
type QueryStream struct {
	// Pred, Version, Origin and Goal mirror QueryResult. Origin "stream"
	// is the genuinely incremental path; "materialized", "eval" and "magic"
	// serve an already-complete sorted answer set tuple by tuple.
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
// A request with no Cursor that does not read a published view runs on the
// streaming executor (internal/stream): the slice reachable from the
// resolved target's predicate is compiled into an iterator tree over the
// pinned snapshot — a recursive component is one fixpoint the evaluator
// fills on first pull — and answers are delivered as they are derived, with
// a reached Limit terminating evaluation early. Bound requests stream the
// seeded magic-set rewrite's answer predicate under the goal filter. A
// Cursor (cursors are defined only over the canonical sorted order) or the
// view sends the request to answer instead, whose sorted tuples are served
// one by one with exact pagination.
//
// A streamed origin holds an executor worker slot for its whole life, so a
// slow consumer occupies a slot; Close releases it.
func (s *Service) QueryStream(ctx context.Context, req QueryRequest) (qs *QueryStream, err error) {
	s.met.queries.Inc()
	s.met.streamQueries.Inc()
	defer func() {
		if err != nil {
			s.met.queryErrors.Inc()
			return
		}
		s.met.streamsActive.Add(1)
		qs.cleanup = append(qs.cleanup, func() { s.met.streamsActive.Add(-1) })
	}()
	q, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	if q.goal != nil {
		s.met.goalQueries.Inc()
	}
	if q.after == nil && !q.readsView() {
		return s.openStream(ctx, &q, req.Limit)
	}
	res, err := s.answer(ctx, &q)
	if err != nil {
		return nil, err
	}
	if res.view != nil {
		it := res.view.After(q.after)
		return s.sortedStream(res, it.Next, req.Limit), nil
	}
	page, _ := pageTuples(res.Tuples, q.after, 0)
	return s.sortedStream(res, func() (datalog.Tuple, bool) {
		if len(page) == 0 {
			return nil, false
		}
		t := page[0]
		page = page[1:]
		return t, true
	}, req.Limit), nil
}

// open compiles q's target — the source program and predicate, or a bound
// request's seeded magic rewrite and its answer predicate under the goal
// filter — over the pinned snapshot, read in place, planned by the shared
// planner. limit caps the answers (0 = all). Nothing is evaluated before the
// first pull.
func (s *Service) open(ctx context.Context, q *resolved, limit int) (*stream.Stream, error) {
	prog, pred, err := s.target(q)
	if err != nil {
		return nil, err
	}
	snap, err := s.snapshotOf(q)
	if err != nil {
		return nil, err
	}
	pp, _ := s.planner.PlanProgram(prog, snap.Stats)
	return stream.Open(ctx, prog, snap.DB, pred, stream.Options{Eval: s.opts, Plan: pp, Limit: limit, Filter: q.goal})
}

// openStream runs q on the streaming executor as a QueryStream of origin
// "stream"; a bound request reports the predicate that was asked for.
func (s *Service) openStream(ctx context.Context, q *resolved, limit int) (*QueryStream, error) {
	sctx, done := s.scoped(ctx, s.cfg.QueryTimeout)
	lim := 0
	if limit > 0 {
		// One past the caller's limit so the wrapper's lookahead can
		// report whether the answer set was truncated.
		lim = limit + 1
	}
	st, err := s.open(sctx, q, lim)
	if err == nil {
		// The evaluation spans the whole drain, so the worker slot is
		// held from here until Close.
		if err = s.exec.acquire(sctx); err != nil {
			st.Close()
		}
	}
	if err != nil {
		done()
		return nil, err
	}
	s.met.scratchEvals.Inc()
	return &QueryStream{
		Pred: q.pred, Version: q.version, Origin: "stream", Goal: q.bind, Sorted: false,
		s:     s,
		next:  st.Next,
		errf:  st.Err,
		limit: limit,
		cleanup: []func(){done, s.exec.release, func() {
			c := st.Counters()
			s.met.streamPeakBuf.SetMax(c.PeakBuffered)
			s.met.evalRounds.Add(c.Rounds)
			st.Close()
		}},
	}, nil
}

// sortedStream wraps an already-complete answer, pulled in the canonical
// sorted order by next, as a QueryStream with exact cursors.
func (s *Service) sortedStream(res QueryResult, next func() (datalog.Tuple, bool), limit int) *QueryStream {
	return &QueryStream{
		Pred: res.Pred, Version: res.Version, Origin: res.Origin, Goal: res.Goal, Sorted: true,
		s:     s,
		next:  next,
		errf:  func() error { return nil },
		limit: limit,
	}
}
