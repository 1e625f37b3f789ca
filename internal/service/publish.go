package service

import (
	"errors"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/magic"
)

// The publish point. A program has one least fixpoint per EDB, so a
// maintained view at a version is a value: the writer (register, commit,
// unregister — all under s.mu) builds the next published state beside the
// current one and installs it with one pointer store, after validation,
// the store fork, the WAL append, the store install and every program's
// maintenance have succeeded and before the subscription hub sees the
// commit's frame. Readers load the pointer and never take s.mu, so a
// commit in flight neither stalls them nor shows them a half-state: they
// keep reading the previous version until the swap. A refused WAL append
// comes before the install, so it leaves no version behind at all.

// published is the immutable state every reader sees.
type published struct {
	// version is the latest version a reader is served: "latest" in a
	// query, Stats().Version, the datalog_published_version gauge.
	version int64
	snap    *Snapshot
	progs   map[string]*publishedProg
}

// publishedProg is one registered program as of the published version.
type publishedProg struct {
	prog *datalog.Program
	// stats is the program's /v1/stats entry (name, hash, sizes, rule
	// counters), taken under s.mu when the view was built and handed out as
	// it is: its map and slice are read-only like the views. It copies the
	// maintained view's counters and nothing else of its stats snapshot.
	stats ProgramStats
	// views holds every IDB predicate in the canonical CompareTuples order.
	// A view is never written after publication; a predicate a commit left
	// unchanged shares its view with the version before, and a changed one
	// every chunk the commit's delta did not land in.
	views map[string]*datalog.View
}

// snapshot builds the registration's next published form; the caller
// holds s.mu. With prev nil (registration) every view is sorted out of
// the maintained relations — the one sort a view ever gets; afterwards
// each commit patches the previous version's views with its net delta.
func (reg *registration) snapshot(prev *publishedProg, delta datalog.Delta) *publishedProg {
	rels := reg.inc.Relations()
	pp := &publishedProg{prog: reg.prog, views: make(map[string]*datalog.View, len(rels))}
	sizes := make(map[string]int, len(rels))
	for pred, rel := range rels {
		if prev == nil {
			pp.views[pred] = datalog.NewView(rel.Arity, rel.Tuples())
		} else {
			pp.views[pred] = prev.views[pred].Patch(delta.Added[pred], delta.Removed[pred])
		}
		sizes[pred] = rel.Size()
	}
	derivations, overDeleted, rederived := reg.inc.Totals()
	pp.stats = ProgramStats{
		Name: reg.name, Hash: reg.hash, Version: reg.version,
		Goal: reg.prog.Goal, Updates: reg.inc.Updates(),
		Rounds: reg.inc.Rounds(), Derivations: derivations, IDBSizes: sizes,
		MaintainTotalNs: reg.maintainTotal.Nanoseconds(),
		MaintainLastNs:  reg.maintainLast.Nanoseconds(),
		OverDeleted:     overDeleted,
		Rederived:       rederived,
		Rules:           reg.inc.RuleStats(),
	}
	return pp
}

// publishLocked installs {snap, every live registration's current view}
// as what readers see; the caller holds s.mu.
func (s *Service) publishLocked(snap *Snapshot) {
	next := &published{version: snap.Version, snap: snap, progs: make(map[string]*publishedProg, len(s.progs))}
	for name, reg := range s.progs {
		next.progs[name] = reg.pub
	}
	s.pub.Store(next)
}

// resolved is a query or explain request bound to the published state it
// was resolved against (see Service.resolve).
type resolved struct {
	pub *published
	// pp is non-nil iff the request named a registration.
	pp      *publishedProg
	prog    *datalog.Program
	hash    string
	pred    string
	arity   int
	version int64
	// after is the tuple the request's cursor names; nil without a cursor.
	after datalog.Tuple
	// goal is the binding pattern of a bound request and bind its canonical
	// string ("S(0,_)"); nil and empty when every position is free.
	goal *datalog.Goal
	bind string
	// rw and seeded are the bound request's magic rewrite and that rewrite
	// seeded with the bound values; Service.target fills them on first use.
	rw     *magic.Rewrite
	seeded *datalog.Program
}

// resolve binds a query or explain request to the published state it is
// answered from — one load of it — and is the one place a request is
// validated: the program (registered by name or parsed from inline source),
// the target predicate (defaulting to the program's goal), the pinned
// version (<0 means latest: the published version), the limit, the cursor,
// parsed here into the tuple it names, and the binding, whose bound
// positions become the request's datalog.Goal. A cursor or binding must
// have one component per argument of the predicate, and a bound value must
// lie in the universe. The result is returned by value and handed on by
// address, so it stays on the caller's stack.
func (s *Service) resolve(req QueryRequest) (resolved, error) {
	if err := s.root.Err(); err != nil {
		return resolved{}, ErrClosed
	}
	if req.Limit < 0 {
		return resolved{}, fmt.Errorf("service: negative limit %d", req.Limit)
	}
	q := resolved{pub: s.pub.Load(), pred: req.Pred, version: req.Version}
	switch {
	case req.Program != "" && req.Source != "":
		return resolved{}, fmt.Errorf("service: query must name a registered program or carry source, not both")
	case req.Program != "":
		q.pp = q.pub.progs[req.Program]
		if q.pp == nil {
			return resolved{}, fmt.Errorf("service: no program registered as %q", req.Program)
		}
		q.prog, q.hash = q.pp.prog, q.pp.stats.Hash
	case req.Source != "":
		p, err := datalog.Parse(req.Source)
		if err != nil {
			return resolved{}, err
		}
		if err := datalog.Validate(p); err != nil {
			return resolved{}, err
		}
		if err := s.checkConstants(p); err != nil {
			return resolved{}, err
		}
		q.prog, q.hash = p, ProgramHash(p)
	default:
		return resolved{}, fmt.Errorf("service: query names no program and carries no source")
	}
	if q.pred == "" {
		q.pred = q.prog.Goal
	}
	for _, r := range q.prog.Rules {
		if r.Head.Pred == q.pred {
			q.arity = len(r.Head.Args)
			break
		}
	}
	if q.arity == 0 {
		return resolved{}, fmt.Errorf("service: %q is not an IDB predicate of the program", q.pred)
	}
	if q.version < 0 {
		q.version = q.pub.version
	}
	if req.Cursor != "" {
		after, err := parseCursor(req.Cursor)
		if err != nil {
			return resolved{}, err
		}
		if len(after) != q.arity {
			return resolved{}, fmt.Errorf("service: cursor %q has %d components, predicate %s has arity %d", req.Cursor, len(after), q.pred, q.arity)
		}
		q.after = after
	}
	// An all-free (or nil) binding leaves q.goal nil: the unbound request.
	for i, b := range req.Bind {
		if b == nil {
			continue
		}
		if q.goal == nil {
			if len(req.Bind) != q.arity {
				return resolved{}, fmt.Errorf("service: bind has %d positions, predicate %s has arity %d", len(req.Bind), q.pred, q.arity)
			}
			g := datalog.NewGoal(q.pred, q.arity, nil)
			q.goal = &g
		}
		if *b < 0 || *b >= s.cfg.Universe {
			return resolved{}, fmt.Errorf("service: bind position %d is %d, outside the universe of size %d", i, *b, s.cfg.Universe)
		}
		q.goal.Bound[i], q.goal.Value[i] = true, *b
	}
	if q.goal != nil {
		q.bind = q.goal.String()
	}
	return q, nil
}

// errOutsideUniverse marks a program refused for a constant that names no
// element of the universe.
var errOutsideUniverse = errors.New("outside the universe")

// checkConstants refuses a program with a constant outside the universe: a
// constant denotes an element, and one that is none would be derived into
// answers that no EDB fact and no request could hold. A registration and an
// ad-hoc source are both checked here; recovery drops a logged registration
// that fails (see Service.recoverRegistration).
func (s *Service) checkConstants(p *datalog.Program) error {
	for _, r := range p.Rules {
		terms := r.Head.Args
		for _, b := range r.Body {
			if b.Atom != nil {
				terms = append(terms[:len(terms):len(terms)], b.Atom.Args...)
			} else {
				terms = append(terms[:len(terms):len(terms)], b.Constraint.Left, b.Constraint.Right)
			}
		}
		for _, t := range terms {
			if !t.IsVar() && (t.Const < 0 || t.Const >= s.cfg.Universe) {
				return fmt.Errorf("service: constant %d in rule %s is %w of size %d", t.Const, r, errOutsideUniverse, s.cfg.Universe)
			}
		}
	}
	return nil
}

// target names what evaluating q runs: the source program and the
// requested predicate or, for a bound request, the magic-set rewrite seeded
// with the bound values and its answer predicate, read under q.goal as the
// filter. The rewrite depends only on the program and the binding pattern,
// so it comes through the rewrite cache; this is the one place one is built.
func (s *Service) target(q *resolved) (*datalog.Program, string, error) {
	if q.goal == nil {
		return q.prog, q.pred, nil
	}
	if q.seeded == nil {
		rk := rewriteKey{hash: q.hash, pred: q.pred, adornment: magic.AdornmentOf(*q.goal), sip: magic.BoundFirstSIP{}.Name()}
		rw, ok := s.rewrites.Get(rk)
		if ok {
			s.met.rewriteHits.Inc()
		} else {
			s.met.rewriteMisses.Inc()
			var err error
			if rw, err = magic.NewRewrite(q.prog, *q.goal, magic.BoundFirstSIP{}); err != nil {
				return nil, "", err
			}
			s.rewrites.Put(rk, rw)
		}
		seeded, err := rw.Seeded(*q.goal)
		if err != nil {
			return nil, "", err
		}
		q.rw, q.seeded = rw, seeded
	}
	return q.seeded, q.rw.GoalPred, nil
}

// readsView reports that q is an unbound read of a registered program at
// the published version: the only version whose views are kept, so its
// answer is the published view. Older pinned versions are evaluated
// from their snapshot.
func (q *resolved) readsView() bool {
	return q.pp != nil && q.goal == nil && q.version == q.pub.version
}

// snapshotOf returns the EDB snapshot the request is pinned to.
func (s *Service) snapshotOf(q *resolved) (*Snapshot, error) {
	if q.version == q.pub.version {
		return q.pub.snap, nil
	}
	if snap, ok := s.store.At(q.version); ok {
		return snap, nil
	}
	return nil, fmt.Errorf("service: version %d is not retained (oldest is %d, latest %d)",
		q.version, s.store.Oldest(), q.pub.version)
}
