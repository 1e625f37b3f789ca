// Package stream is the pull-based streaming execution layer over the
// packed-tuple engine of internal/datalog. Where the bottom-up evaluator
// materializes every relation, delta and join index before a caller sees
// the first answer, this package compiles the program slice that a query
// predicate depends on into a tree of pull iterators — scans, per-row
// probes, selections, projections and spooling buffers where re-iteration
// is required — so answers are produced as they are derived and memory
// scales with what must be remembered (distinct-key sets, spooled
// predicates) rather than with every intermediate relation. Each rule runs
// datalog's own compiled form (datalog.CompileJoin): the iterator tree
// joins a body in the order, and with the probe masks, the evaluator's join
// loop uses.
//
// Whether an intermediate streams follows from the program's shape alone:
// the query predicate streams (it is the output); an intermediate consumed
// exactly once, as its consumer's first atom, is inlined — the consumer
// pulls straight from the producer's pipeline and the predicate is never
// stored beyond its distinct-key set; every other intermediate is spooled
// into a relation its consumers scan or probe.
//
// Recursion is a spool the evaluator fills. The reachable predicates on a
// dependency cycle, with every IDB they depend on, form the recursive
// component; its rules are one program that datalog.EvalContext runs to its
// least fixpoint on first pull, and each of its predicates is then a stored
// relation like any spooled intermediate. A query predicate inside the
// component streams a scan of its fixpoint relation. There is no second
// semi-naive loop here: the evaluator's is the one fixpoint.
package stream

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/plan"
)

// Iterator is a pull-based tuple stream. Next returns the next tuple until
// the stream is exhausted or fails; after Next returns false, Err reports
// what ended it — a context cancellation, or the fixpoint's error — nil on
// normal exhaustion. The returned tuples are fresh copies the caller may
// retain. Close releases buffered state and is idempotent.
type Iterator interface {
	Next() (datalog.Tuple, bool)
	Err() error
	Close()
}

// Counters are the observable side of one stream's execution.
type Counters struct {
	// Pulls counts candidate rows considered across every operator in the
	// iterator tree (the streaming analogue of the evaluator's derivation
	// counter).
	Pulls int64
	// Buffered is the current number of rows held by buffering operators:
	// distinct-key sets, spooled relations and the fixpoint's relations.
	Buffered int64
	// PeakBuffered is the high-water mark of Buffered — the number that
	// bounds the stream's memory footprint.
	PeakBuffered int64
	// Rounds is the number of rounds the recursive component's fixpoint
	// took (0 when the slice is not recursive or it has not run yet).
	Rounds int64
}

// ctxCheckEvery is how many pulls pass between context polls; cheap enough
// to keep cancellation latency low without touching the context per row.
const ctxCheckEvery = 256

// tracker carries the shared execution state of one stream: the context,
// the first error, and the pull/buffer counters every operator reports to.
type tracker struct {
	ctx        context.Context
	err        error
	pulls      int64
	buffered   int64
	peak       int64
	rounds     int64
	sinceCheck int64
}

// tick records one candidate row and polls the context every
// ctxCheckEvery pulls; it returns false once the stream has failed.
func (t *tracker) tick() bool {
	if t.err != nil {
		return false
	}
	t.pulls++
	t.sinceCheck++
	if t.sinceCheck >= ctxCheckEvery {
		t.sinceCheck = 0
		if t.ctx != nil {
			if err := t.ctx.Err(); err != nil {
				t.err = err
				return false
			}
		}
	}
	return true
}

// addBuffered adjusts the buffered-row level and the peak.
func (t *tracker) addBuffered(n int64) {
	t.buffered += n
	if t.buffered > t.peak {
		t.peak = t.buffered
	}
}

// Options configures a streaming query.
type Options struct {
	// Eval supplies the engine knobs shared with materialized evaluation:
	// the planner hook (applied before compilation exactly as the
	// evaluator applies it) and the options the recursive component's
	// fixpoint runs under — without the planner, over rules already
	// planned.
	Eval datalog.Options
	// Plan, when non-nil, supplies the already-planned rule list; it takes
	// precedence over Eval.Planner. The plan must have been built for the
	// same program.
	Plan *plan.ProgramPlan
	// Limit stops the stream after this many distinct answers (0 = no
	// limit). Because iterators pull lazily, a reached limit terminates
	// evaluation early instead of discarding computed tuples.
	Limit int
	// Filter, when non-nil, restricts the answers to tuples matching the
	// goal's bound positions (the answer-projection step of bound
	// queries).
	Filter *datalog.Goal
}

// Stream is a running streaming query over one predicate. It implements
// Iterator; answers arrive in derivation order (not the canonical sorted
// order — sort with datalog.SortTuples when order matters).
type Stream struct {
	t      *tracker
	b      *builder
	out    *predStream
	closed bool
}

// Open compiles the slice of p reachable from pred into an iterator tree
// over db and returns the un-started stream; nothing is evaluated before
// the first pull. The database is only read — a
// join index it lacks is built once and published atomically (see
// datalog.Relation) — so any number of streams and evaluations may share
// one db, as the service's do a snapshot; it must not be mutated while the
// stream is open.
func Open(ctx context.Context, p *datalog.Program, db *datalog.Database, pred string, opt Options) (*Stream, error) {
	if err := opt.Eval.Validate(); err != nil {
		return nil, err
	}
	eff, err := effectiveProgram(p, db, opt)
	if err != nil {
		return nil, err
	}
	an, err := analyze(eff, db, pred)
	if err != nil {
		return nil, err
	}
	t := &tracker{ctx: ctx}
	b := &builder{t: t, an: an, db: db, eval: opt.Eval.WithPlanner(nil),
		slots: map[string]*relSlot{}, streams: map[string]*predStream{}}
	out := b.predStream(pred)
	out.filter = opt.Filter
	out.limit = opt.Limit
	return &Stream{t: t, b: b, out: out}, nil
}

// Next returns the next answer tuple.
func (s *Stream) Next() (datalog.Tuple, bool) {
	if s.closed {
		return nil, false
	}
	return s.out.Next()
}

// Err reports the failure that ended the stream, nil after normal
// exhaustion.
func (s *Stream) Err() error { return s.t.err }

// Close releases buffered state; the stream yields no further tuples.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.out.close()
}

// Counters returns the stream's execution counters so far.
func (s *Stream) Counters() Counters {
	return Counters{Pulls: s.t.pulls, Buffered: s.t.buffered, PeakBuffered: s.t.peak, Rounds: s.t.rounds}
}

// Rows returns the number of distinct rows of an IDB predicate of the slice
// derived so far: its fixpoint relation's size, or what its pipeline has
// produced (a spooled predicate's whole relation once spooled); 0 for a
// predicate not reached yet.
func (s *Stream) Rows(pred string) int {
	if rel := s.b.fixed[pred]; rel != nil {
		return rel.Size()
	}
	if ps := s.b.streams[pred]; ps != nil {
		return ps.emitted
	}
	return 0
}

// Decisions returns the per-step stream/materialize decisions the compile
// made (what /v1/explain surfaces).
func (s *Stream) Decisions() *Decisions { return s.b.an.decisions() }

// Collect drains the stream and returns every answer in the canonical
// datalog.CompareTuples order, closing it.
func Collect(s *Stream) ([]datalog.Tuple, error) {
	defer s.Close()
	var out []datalog.Tuple
	for {
		t, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	datalog.SortTuples(out)
	return out, nil
}

// effectiveProgram validates p and applies the planner exactly as the
// evaluator does: Options.Plan wins, then Eval.Planner, then the rules as
// written.
func effectiveProgram(p *datalog.Program, db *datalog.Database, opt Options) (*datalog.Program, error) {
	if err := datalog.Validate(p); err != nil {
		return nil, err
	}
	if opt.Plan != nil {
		planned := opt.Plan.PlannedRules()
		if len(planned) > 0 {
			return &datalog.Program{Rules: planned, Goal: p.Goal}, nil
		}
		return p, nil
	}
	if opt.Eval.Planner != nil {
		planned, err := opt.Eval.Planner.PlanRules(p, db)
		if err != nil {
			return nil, fmt.Errorf("stream: planner: %w", err)
		}
		if len(planned) > 0 {
			eff := &datalog.Program{Rules: planned, Goal: p.Goal}
			if err := datalog.Validate(eff); err != nil {
				return nil, fmt.Errorf("stream: planner produced invalid program: %w", err)
			}
			return eff, nil
		}
	}
	return p, nil
}
