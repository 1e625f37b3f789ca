package datalog

// Incremental view maintenance. An Incremental owns one program's
// materialized fixpoint and keeps it current as the EDB changes, without
// re-evaluating from scratch:
//
//   - Insertions re-enter the semi-naive delta loop seeded from the new
//     facts: for every body-atom occurrence of an affected EDB predicate
//     the rule fires once led by that occurrence reading only the inserted
//     tuples (compile.go, leadOrder; the other occurrences probe the full,
//     already-updated relations), which derives exactly the consequences
//     that use at least one new fact at the cost of the facts inserted;
//     the resulting IDB delta then drives the ordinary semi-naive
//     continuation to the new fixpoint.
//
//   - Deletions use delete-and-rederive (DRed), both phases driven by the
//     witness table (witness.go) so that they cost in proportion to what
//     the deletion affects, not to the view. Every IDB tuple has a row
//     with the rule application that first derived it, citing its body
//     facts by reference, and every fact — EDB or IDB — heads a use-list
//     of the references citing it.
//
//     Over-deletion is a worklist over the use-lists: starting from the
//     removed EDB facts, every head whose witness cites a dead fact is
//     dead too and is followed in turn. A tuple is over-deleted exactly
//     when its witness lost a body fact, directly or through an earlier
//     over-deletion; a survivor's witness is intact, so it is certainly
//     still derivable and is never visited. Witness bodies come from
//     strictly earlier stages, so the references form a DAG and the
//     worklist reaches exactly the set a walk over all tuples in
//     ascending stage order would mark (the test-only reference in
//     incremental_reference_test.go is that walk).
//
//     Rederivation is head-seeded: every rule has a compiled form led by
//     an atom over the over-deleted tuples of its head predicate
//     (compile.go, leadOrder), so one round asks, per over-deleted
//     tuple and rule, whether the survivors still derive it — bound probes
//     and membership tests from the head outward, stopping at the first
//     witness. What comes back is committed at a fresh stage and drives
//     the ordinary semi-naive continuation, which re-derives whatever
//     depended on it. The seeds are only read while rules fire; a tuple
//     that returns is committed after the round, at a stage above that of
//     every survivor its new witness cites.
//
// Stage numbers keep growing across updates (rounds are never reset), so
// the witness-acyclicity invariant — every body fact of a recorded
// witness has a strictly smaller stage than its head — holds by
// construction after any sequence of updates. Stages therefore order
// derivations but no longer match a from-scratch evaluation; the
// maintained IDB relations do, exactly.
//
// Context-aware maintenance: InsertContext and DeleteContext check the
// context at every fixpoint round exactly like EvalContext. A cancelled
// maintenance run leaves the materialized view part-way between two
// fixpoints, so the Incremental marks itself broken — every later call
// returns ErrViewBroken (wrapped) and the owner must rebuild the view
// with NewIncremental. Cancellation is therefore for teardown paths
// (process shutdown), not for routine timeouts on a view worth keeping.

import (
	"context"
	"errors"
	"fmt"
)

// ErrViewBroken reports that an Incremental's maintenance was aborted
// mid-update (by context cancellation), leaving the materialized view
// inconsistent. The view must be rebuilt with NewIncremental.
var ErrViewBroken = errors.New("datalog: incremental view broken by an aborted update")

// Delta is the net change one maintenance run (Insert or Delete) made
// to the maintained fixpoint: per IDB predicate, the tuples the run
// added to and removed from the view, each slice in the canonical
// CompareTuples order. Predicates the run left unchanged are absent.
// The maps and slices are freshly allocated per run and never mutated
// afterwards, so callers may retain them (the service's /v1/subscribe
// hub publishes them to live subscribers instead of discarding them).
type Delta struct {
	Added   map[string][]Tuple
	Removed map[string][]Tuple
}

// Empty reports whether the run changed no IDB tuple at all.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// MergeDeltas composes two deltas applied in sequence (a then b) into
// the net view change — the shape one EDB commit produces when the
// service runs its deletions and insertions as two maintenance passes.
// A tuple removed by a and re-added by b (or vice versa) cancels out;
// slices in the result are canonically sorted. When one side is empty
// the other is returned as-is (both are immutable snapshots).
func MergeDeltas(a, b Delta) Delta {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	index := func(m map[string][]Tuple) map[string]map[tupleKey]bool {
		out := make(map[string]map[tupleKey]bool, len(m))
		for pred, ts := range m {
			km := make(map[tupleKey]bool, len(ts))
			for _, t := range ts {
				km[keyOf(t)] = true
			}
			out[pred] = km
		}
		return out
	}
	aAdd, aRem := index(a.Added), index(a.Removed)
	bAdd, bRem := index(b.Added), index(b.Removed)
	var out Delta
	net := func(first map[string][]Tuple, cancelIdx map[string]map[tupleKey]bool, dst *map[string][]Tuple) {
		for pred, ts := range first {
			for _, t := range ts {
				if cancelIdx[pred][keyOf(t)] {
					continue
				}
				if *dst == nil {
					*dst = map[string][]Tuple{}
				}
				(*dst)[pred] = append((*dst)[pred], t)
			}
		}
	}
	net(a.Added, bRem, &out.Added)
	net(b.Added, aRem, &out.Added)
	net(a.Removed, bAdd, &out.Removed)
	net(b.Removed, aAdd, &out.Removed)
	for _, m := range []map[string][]Tuple{out.Added, out.Removed} {
		for _, ts := range m {
			SortTuples(ts)
		}
	}
	return out
}

// Incremental maintains the least fixpoint of a program across EDB
// insertions and deletions. It owns a private copy of the database handed
// to NewIncremental; the caller mutates the EDB only through Insert and
// Delete. Methods must not be called concurrently (wrap the Incremental
// in a lock to share it, as internal/service does).
type Incremental struct {
	p      *Program
	db     *Database // owned copy; the evaluator's EDB pointers alias it
	e      *evaluator
	arity  map[string]int
	edbSet map[string]bool
	// updates counts applied Insert/Delete batches (for stats).
	updates int
	// broken records the error of an aborted maintenance run; once set,
	// the view is stale and every method fails.
	broken error
	// lastDelta is the net IDB change of the most recent successful
	// Insert/Delete; see LastDelta.
	lastDelta Delta
	// over holds, per IDB predicate, the tuples the current (or last) delete
	// run over-deleted, cand the same tuples as the lists its head-seeded
	// rules read, and work is that run's worklist of dead witness rows; all
	// three are recycled from run to run.
	over []*Relation
	cand [][]Tuple
	work []uint32
}

// NewIncremental evaluates the program to its fixpoint on a private copy
// of db and returns the maintained view. SemiNaive and TrackProvenance
// are forced on: the delta loop is what updates re-enter, and DRed needs
// the per-tuple witness derivations. db is read like Eval reads it: with
// UseIndexes the join indexes the program probes are built on db's own
// relations, once, before the copy is taken, so that every view registered
// over one database — and everything else cloned from it — shares them.
func NewIncremental(p *Program, db *Database, opt Options) (*Incremental, error) {
	return NewIncrementalContext(context.Background(), p, db, opt)
}

// NewIncrementalContext is NewIncremental under a context; the initial
// evaluation aborts with ctx.Err() within one round of the context
// ending (nothing to poison — no view is returned on error).
func NewIncrementalContext(ctx context.Context, p *Program, db *Database, opt Options) (*Incremental, error) {
	opt.SemiNaive = true
	opt.TrackProvenance = true
	e, err := newEvaluator(ctx, p, db, opt)
	if err != nil {
		return nil, err
	}
	// Every form maintenance fires — each rule led by each body atom and by
	// its head — compiled while e is still bound to db itself: that builds
	// the EDB indexes they probe where the clone made next inherits them.
	for ri, cr := range e.rules {
		for ai := range cr.atoms {
			e.ledBy(ri, ai)
		}
		e.seeded = append(e.seeded, e.compileLed(ri, -1))
	}
	owned := db.Clone()
	arity := p.Arities()
	// Materialize every EDB relation the program reads so the compiled
	// rules hold pointers into the owned database (never the shared empty
	// fallback) and later insertions land where the rules look.
	for _, name := range e.edbNames {
		owned.EnsureRelation(name, arity[name])
	}
	if err := e.bind(owned); err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	e.ctx = context.Background()
	// The initial evaluation sized these for whole-view rounds; maintenance
	// rounds are small and grow their own.
	e.outs, e.tasks = nil, nil
	e.resetDeltas()
	inc := &Incremental{p: p, db: owned, e: e, arity: arity, edbSet: p.EDBs()}
	inc.over = make([]*Relation, len(e.idbNames))
	inc.cand = make([][]Tuple, len(e.idbNames))
	for id, rel := range e.idbByID {
		inc.over[id] = NewDLRelation(rel.Arity)
	}
	return inc, nil
}

// Program returns the maintained program.
func (inc *Incremental) Program() *Program { return inc.p }

// DB returns the owned EDB database. Callers must treat it as read-only.
func (inc *Incremental) DB() *Database { return inc.db }

// Updates returns the number of applied Insert/Delete batches.
func (inc *Incremental) Updates() int { return inc.updates }

// Rounds returns the accumulated iteration-round count without building
// a full Result snapshot (cheap enough for per-commit metrics).
func (inc *Incremental) Rounds() int { return inc.e.rounds }

// Relations returns the maintained IDB relations by predicate: live,
// shared with the evaluator, read-only. Unlike Result it builds no stats
// snapshot, so a caller publishing sizes on every update pays nothing for
// per-rule counters it does not read.
func (inc *Incremental) Relations() map[string]*Relation { return inc.e.idb }

// Totals returns the running counters Result().Stats would report for the
// derivations and DRed's delete runs — tuples over-deleted, and the ones
// among them rederived — without building the stats snapshot.
func (inc *Incremental) Totals() (derivations int, overDeleted, rederived int64) {
	return inc.e.derivations, inc.e.overDeleted, inc.e.rederived
}

// RuleStats returns Result().Stats.Rules alone: a fresh copy of the per-rule
// counters, without the per-round history the full snapshot copies.
func (inc *Incremental) RuleStats() []RuleStats { return inc.e.ruleStatsSnapshot() }

// Err returns the error that broke the view (wrapping ErrViewBroken), or
// nil while the view is consistent.
func (inc *Incremental) Err() error { return inc.broken }

// LastDelta returns the net per-predicate IDB change of the most recent
// successful Insert or Delete: exactly the tuples a reader of the view
// gained and lost, in canonical order. A no-op update (nothing genuinely
// new or removed) yields an empty Delta, as does any call before the
// first update. The result is a stable snapshot — later updates replace
// it but never mutate it.
func (inc *Incremental) LastDelta() Delta { return inc.lastDelta }

// beginChanges arms the evaluator's new-tuple recording for one
// maintenance run.
func (e *evaluator) beginChanges() { e.changes = make([][]Tuple, len(e.idbNames)) }

// takeChanges disarms recording and returns what the run committed.
func (e *evaluator) takeChanges() [][]Tuple {
	ch := e.changes
	e.changes = nil
	return ch
}

// setDelta files one predicate's side of a Delta, canonically sorted; an
// empty side stays absent. ts must be the caller's to give away.
func (e *evaluator) setDelta(side *map[string][]Tuple, id int, ts []Tuple) {
	if len(ts) == 0 {
		return
	}
	SortTuples(ts)
	if *side == nil {
		*side = map[string][]Tuple{}
	}
	(*side)[e.idbNames[id]] = ts
}

// Result returns a live view of the maintained fixpoint: the IDB relations
// and the witness table behind Stage and Prove are shared with the
// evaluator, so the view reflects every later update. Rounds and Derivations accumulate across updates,
// as do the Stats counters.
func (inc *Incremental) Result() *Result { return inc.e.result() }

// Check validates an update batch before any mutation: facts naming
// an IDB predicate of the program are rejected (the IDB is derived, not
// asserted), facts for the program's EDB predicates must match their
// arity, and every element must lie in the universe. Facts for predicates
// the program never mentions are legal — they are returned as irrelevant
// so callers sharing one fact stream across programs need no filtering.
func (inc *Incremental) Check(facts ...Fact) error {
	for _, f := range facts {
		if inc.e.idbSet[f.Pred] {
			return fmt.Errorf("datalog: %s is an IDB predicate of the program; its facts are derived, not asserted", f.Pred)
		}
		if inc.edbSet[f.Pred] && len(f.Tuple) != inc.arity[f.Pred] {
			return fmt.Errorf("datalog: fact %s has arity %d but the program uses %s with arity %d",
				f, len(f.Tuple), f.Pred, inc.arity[f.Pred])
		}
		for _, x := range f.Tuple {
			if x < 0 || x >= inc.db.N {
				return fmt.Errorf("datalog: fact %s has element %d outside the universe of size %d", f, x, inc.db.N)
			}
		}
	}
	return nil
}

// begin gates a maintenance run: it rejects calls on a broken view and
// installs the run's context on the evaluator.
func (inc *Incremental) begin(ctx context.Context) error {
	if inc.broken != nil {
		return fmt.Errorf("%w: %w", ErrViewBroken, inc.broken)
	}
	inc.e.ctx = ctx
	return nil
}

// finish restores the evaluator's context and poisons the view when the
// maintenance run aborted after mutating state.
func (inc *Incremental) finish(err error) error {
	inc.e.ctx = context.Background()
	if err != nil {
		inc.broken = err
	}
	return err
}

// Insert adds EDB facts and maintains the fixpoint with a background
// context; see InsertContext.
func (inc *Incremental) Insert(facts ...Fact) error {
	return inc.InsertContext(context.Background(), facts...)
}

// InsertContext adds EDB facts and maintains the fixpoint by re-entering
// the semi-naive loop seeded from the genuinely-new tuples. The whole
// batch is validated before anything mutates, so on a validation error
// the view is unchanged; a context abort mid-maintenance breaks the view
// (see ErrViewBroken). Facts for predicates outside the program are
// ignored.
func (inc *Incremental) InsertContext(ctx context.Context, facts ...Fact) error {
	if err := inc.begin(ctx); err != nil {
		return err
	}
	if err := inc.Check(facts...); err != nil {
		inc.e.ctx = context.Background()
		return err
	}
	inc.updates++
	inc.lastDelta = Delta{}
	// Apply to the EDB, collecting per predicate the facts that were
	// actually new.
	var deltas map[string][]Tuple
	for _, f := range facts {
		if !inc.edbSet[f.Pred] {
			continue
		}
		if stored, _, isNew := inc.db.Relation(f.Pred).add(f.Tuple, false); isNew {
			if deltas == nil {
				deltas = map[string][]Tuple{}
			}
			deltas[f.Pred] = append(deltas[f.Pred], stored)
		}
	}
	if deltas == nil {
		return inc.finish(nil)
	}
	e := inc.e
	// Seed round: one task per body-atom occurrence of an affected EDB
	// predicate, the rule led by that occurrence reading the new facts. Any
	// rule firing that uses at least one inserted fact is covered by the
	// task led by one of its new-fact occurrences; firings using only old
	// facts were already materialized.
	e.tasks = e.tasks[:0]
	for ri, cr := range e.rules {
		for ai := range cr.atoms {
			if a := &cr.atoms[ai]; a.idbID < 0 && len(deltas[a.pred]) > 0 {
				e.tasks = append(e.tasks, fireTask{cr: e.ledBy(ri, ai), lead: deltas[a.pred]})
			}
		}
	}
	if len(e.tasks) == 0 {
		return inc.finish(nil)
	}
	e.beginChanges()
	err := e.resumeFixpoint()
	added := e.takeChanges()
	if err == nil {
		for id, ts := range added {
			e.setDelta(&inc.lastDelta.Added, id, ts)
		}
	}
	return inc.finish(err)
}

// Delete removes EDB facts and maintains the fixpoint with a background
// context; see DeleteContext.
func (inc *Incremental) Delete(facts ...Fact) error {
	return inc.DeleteContext(context.Background(), facts...)
}

// DeleteContext removes EDB facts and maintains the fixpoint by DRed:
// the tuples whose witness lost a fact are over-deleted by following
// use-lists outward from the removed facts, then each rule is asked, head
// first, which of them the survivors still derive, and the semi-naive
// loop continues from what came back (see the package comment). The batch
// is validated before any mutation; a context abort mid-maintenance breaks
// the view (see ErrViewBroken).
func (inc *Incremental) DeleteContext(ctx context.Context, facts ...Fact) error {
	if err := inc.begin(ctx); err != nil {
		return err
	}
	if err := inc.Check(facts...); err != nil {
		inc.e.ctx = context.Background()
		return err
	}
	inc.updates++
	inc.lastDelta = Delta{}
	e := inc.e
	w := e.wit
	// Apply to the EDB. A fact that was there and that some witness cites
	// has a row: those rows start the worklist.
	work := inc.work[:0]
	for _, f := range facts {
		if !inc.edbSet[f.Pred] || !inc.db.Relation(f.Pred).Remove(f.Tuple) {
			continue
		}
		if r := w.find(w.tabID[f.Pred], keyOf(f.Tuple), f.Tuple); r != 0 {
			w.rows[r].stage = deadStage
			work = append(work, r)
		}
	}
	cited := len(work)
	for id, over := range inc.over {
		over.reset()
		clear(inc.cand[id])
		inc.cand[id] = inc.cand[id][:0]
	}
	// Over-deletion: a head whose witness cites a dead fact is dead. Each
	// row is marked when first reached, so it is queued once.
	for i := 0; i < len(work); i++ {
		for ref := w.rows[work[i]].uses; ref != 0; ref = w.refs[ref].next {
			if h := w.refs[ref].head; w.rows[h].stage != deadStage {
				w.rows[h].stage = deadStage
				work = append(work, h)
			}
		}
	}
	inc.work = work
	// Remove the dead tuples from the view, keeping them in over as the
	// candidates of the rederivation (and, net of what it brings back, the
	// run's view delta), and free every dead row — a removed fact's too,
	// even if nothing cites it any more.
	for _, r := range work[cited:] {
		id := w.tabOf(r)
		rel := e.idbByID[id]
		stored := rel.get(w.keyOfRow(r))
		inc.over[id].add(stored, true)
		inc.cand[id] = append(inc.cand[id], stored)
		rel.Remove(stored)
	}
	for _, r := range work {
		w.release(r)
	}
	if len(work) == cited {
		return inc.finish(nil) // no witness cited a removed fact
	}
	e.overDeleted += int64(len(work) - cited)

	// Rederivation: one head-seeded task per rule whose head predicate lost
	// anything, then the semi-naive continuation from whatever returned.
	e.tasks = e.tasks[:0]
	for _, cr := range e.seeded {
		if cand := inc.cand[cr.headID]; len(cand) > 0 && !cr.never {
			e.tasks = append(e.tasks, fireTask{cr: cr, lead: cand})
		}
	}
	e.beginChanges()
	err := e.resumeFixpoint()
	readded := e.takeChanges()
	if err != nil {
		return inc.finish(err)
	}
	// Every firing over the shrunken IDB and EDB lands inside the old
	// fixpoint, so only over-deleted tuples can have been committed and the
	// Added side nets to empty; it is computed anyway rather than assumed.
	for id, over := range inc.over {
		rel := e.idbByID[id]
		var removed, added []Tuple
		over.Each(func(t Tuple) bool {
			if !rel.Has(t) {
				removed = append(removed, t)
			}
			return true
		})
		for _, t := range readded[id] {
			if over.Has(t) {
				e.rederived++
			} else {
				added = append(added, t)
			}
		}
		e.setDelta(&inc.lastDelta.Removed, id, removed)
		e.setDelta(&inc.lastDelta.Added, id, added)
	}
	return inc.finish(nil)
}
