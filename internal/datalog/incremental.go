package datalog

// Incremental view maintenance. An Incremental owns one program's
// materialized fixpoint and keeps it current as the EDB changes, without
// re-evaluating from scratch:
//
//   - Insertions re-enter the semi-naive delta loop seeded from the new
//     facts: for every body-atom occurrence of an affected EDB predicate
//     the rule fires once with that occurrence reading only the inserted
//     tuples (the other occurrences read the full, already-updated
//     relations), which derives exactly the consequences that use at
//     least one new fact; the resulting IDB delta then drives the
//     ordinary semi-naive continuation to the new fixpoint.
//
//   - Deletions use delete-and-rederive (DRed) with the engine's
//     first-derivation provenance bounding the over-deletion phase: every
//     IDB tuple carries a witness derivation whose body facts come from
//     strictly earlier stages, so walking the tuples in ascending stage
//     order and over-deleting exactly those whose witness lost a body
//     fact (a deleted EDB fact, or an IDB fact over-deleted earlier in
//     the walk) is sound — surviving tuples keep an intact, acyclic
//     witness. The over-deleted tuples are removed and the rederivation
//     phase resumes the semi-naive loop over the survivors; anything that
//     comes back gets a fresh (still acyclic) witness.
//
// Stage numbers keep growing across updates (rounds are never reset), so
// the witness-acyclicity invariant — every body fact of a recorded
// derivation has a strictly smaller stage than its head — holds by
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
	"slices"
	"sort"
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

// PatchSorted applies one predicate's net delta (a MergeDeltas or
// LastDelta entry: added disjoint from sorted, removed contained in it,
// both canonically sorted) to a canonically sorted view and returns the
// sorted result in a fresh slice: the runs between the delta's tuples are
// found by binary search and copied whole, so a small delta costs one
// allocation and one copy of the view, whatever the view's size. sorted
// is never written and, when the delta is empty, is returned as it is —
// which is what lets a published view be shared across versions.
func PatchSorted(sorted, added, removed []Tuple) []Tuple {
	if len(added) == 0 && len(removed) == 0 {
		return sorted
	}
	out := make([]Tuple, 0, max(0, len(sorted)+len(added)-len(removed)))
	rest := sorted
	for len(added) > 0 || len(removed) > 0 {
		remove := len(removed) > 0 && (len(added) == 0 || CompareTuples(removed[0], added[0]) <= 0)
		t := added
		if remove {
			t = removed
		}
		i, found := slices.BinarySearchFunc(rest, t[0], CompareTuples)
		out = append(out, rest[:i]...)
		rest = rest[i:]
		if remove {
			if found {
				rest = rest[1:]
			}
			removed = removed[1:]
		} else {
			if !found {
				out = append(out, t[0])
			}
			added = added[1:]
		}
	}
	return append(out, rest...)
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
}

// NewIncremental evaluates the program to its fixpoint on a private copy
// of db and returns the maintained view. SemiNaive and TrackProvenance
// are forced on: the delta loop is what updates re-enter, and DRed needs
// the per-tuple witness derivations.
func NewIncremental(p *Program, db *Database, opt Options) (*Incremental, error) {
	return NewIncrementalContext(context.Background(), p, db, opt)
}

// NewIncrementalContext is NewIncremental under a context; the initial
// evaluation aborts with ctx.Err() within one round of the context
// ending (nothing to poison — no view is returned on error).
func NewIncrementalContext(ctx context.Context, p *Program, db *Database, opt Options) (*Incremental, error) {
	opt.SemiNaive = true
	opt.TrackProvenance = true
	owned := db.Clone()
	arity := p.Arities()
	edbSet := p.EDBs()
	// Materialize every EDB relation the program reads so the compiled
	// rules hold pointers into the owned database (never the shared empty
	// fallback) and later insertions land where the rules look.
	for name := range edbSet {
		if r := owned.Relation(name); r != nil && r.Arity != arity[name] {
			return nil, fmt.Errorf("datalog: EDB %s has arity %d in the database but %d in the program",
				name, r.Arity, arity[name])
		}
		owned.EnsureRelation(name, arity[name])
	}
	e, err := newEvaluator(ctx, p, owned, opt)
	if err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	e.ctx = context.Background()
	return &Incremental{p: p, db: owned, e: e, arity: arity, edbSet: edbSet}, nil
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
func (e *evaluator) beginChanges() {
	e.changes = make([]map[tupleKey]Tuple, len(e.idbNames))
	for i := range e.changes {
		e.changes[i] = map[tupleKey]Tuple{}
	}
}

// takeChanges disarms recording and returns what the run committed.
func (e *evaluator) takeChanges() []map[tupleKey]Tuple {
	ch := e.changes
	e.changes = nil
	return ch
}

// deltaOf folds per-id added/removed tuple maps into a Delta keyed by
// predicate name, each slice canonically sorted. A key present in both
// maps of one id cancels out (the run removed and re-derived the tuple,
// so the view is unchanged for it).
func (inc *Incremental) deltaOf(added, removed []map[tupleKey]Tuple) Delta {
	e := inc.e
	var d Delta
	fold := func(src, other []map[tupleKey]Tuple, out *map[string][]Tuple) {
		if src == nil {
			return
		}
		for id, m := range src {
			var ts []Tuple
			for k, t := range m {
				if other != nil && other[id] != nil {
					if _, both := other[id][k]; both {
						continue
					}
				}
				ts = append(ts, t)
			}
			if len(ts) == 0 {
				continue
			}
			SortTuples(ts)
			if *out == nil {
				*out = map[string][]Tuple{}
			}
			(*out)[e.idbNames[id]] = ts
		}
	}
	fold(added, removed, &d.Added)
	fold(removed, added, &d.Removed)
	return d
}

// Result returns a live view of the maintained fixpoint: the IDB, stage
// and provenance maps are shared with the evaluator, so the view reflects
// every later update. Rounds and Derivations accumulate across updates,
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
	// Apply to the EDB, collecting per-predicate delta relations holding
	// only the facts that were actually new.
	var deltas map[string]*Relation
	for _, f := range facts {
		if !inc.edbSet[f.Pred] {
			continue
		}
		if inc.db.Relation(f.Pred).Add(f.Tuple) {
			if deltas == nil {
				deltas = map[string]*Relation{}
			}
			d := deltas[f.Pred]
			if d == nil {
				d = NewDLRelation(len(f.Tuple))
				deltas[f.Pred] = d
			}
			d.Add(f.Tuple)
		}
	}
	if deltas == nil {
		return inc.finish(nil)
	}
	e := inc.e
	// Seed round: one task per body-atom occurrence of an affected EDB
	// predicate, that occurrence reading the delta. Any rule firing that
	// uses at least one inserted fact is covered by the task whose delta
	// position is one of its new-fact occurrences; firings using only old
	// facts were already materialized.
	e.tasks = e.tasks[:0]
	for ri, cr := range e.rules {
		for ai := range cr.atoms {
			a := &cr.atoms[ai]
			if a.idbID >= 0 {
				continue
			}
			if d := deltas[a.pred]; d != nil {
				if e.opt.UseIndexes && a.mask != 0 {
					d.ensureIndex(a.mask)
				}
				e.tasks = append(e.tasks, fireTask{ri: ri, deltaIdx: ai, rel: d})
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
		inc.lastDelta = inc.deltaOf(added, nil)
	}
	return inc.finish(err)
}

// Delete removes EDB facts and maintains the fixpoint with a background
// context; see DeleteContext.
func (inc *Incremental) Delete(facts ...Fact) error {
	return inc.DeleteContext(context.Background(), facts...)
}

// DeleteContext removes EDB facts and maintains the fixpoint by DRed:
// witnesses invalidated by the removals are over-deleted in ascending
// stage order, then the semi-naive loop resumes over the survivors to
// re-derive anything still supported. The batch is validated before any
// mutation; a context abort mid-maintenance breaks the view (see
// ErrViewBroken).
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
	// Apply to the EDB, remembering what was actually removed.
	var removed map[string]map[tupleKey]bool
	for _, f := range facts {
		if !inc.edbSet[f.Pred] {
			continue
		}
		if inc.db.Relation(f.Pred).Remove(f.Tuple) {
			if removed == nil {
				removed = map[string]map[tupleKey]bool{}
			}
			m := removed[f.Pred]
			if m == nil {
				m = map[tupleKey]bool{}
				removed[f.Pred] = m
			}
			m[keyOf(f.Tuple)] = true
		}
	}
	if removed == nil {
		return inc.finish(nil)
	}
	e := inc.e

	// Over-deletion: walk every IDB tuple in ascending first-derivation
	// stage order. A tuple is over-deleted exactly when its witness lost a
	// body fact — a removed EDB fact, or an IDB fact over-deleted earlier
	// in the walk (witness bodies always have strictly smaller stages, so
	// they are decided first). Survivors keep an intact witness and are
	// certainly still derivable.
	type staged struct {
		predID int
		k      tupleKey
		stage  int
	}
	var all []staged
	for id := range e.idbNames {
		// The stage table is keyed by exactly the view's tuples.
		for k, stage := range e.stageByID[id].m {
			all = append(all, staged{predID: id, k: k, stage: stage})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].stage < all[j].stage })
	over := make([]map[tupleKey]bool, len(e.idbNames))
	for i := range over {
		over[i] = map[tupleKey]bool{}
	}
	overTotal := 0
	for _, s := range all {
		d := e.provByID[s.predID][s.k]
		if d == nil {
			continue // no recorded witness (cannot happen: provenance is forced on); treat as surviving
		}
		for _, bf := range d.Body {
			if id, ok := e.idbID[bf.Pred]; ok {
				if !over[id][keyOf(bf.Tuple)] {
					continue
				}
			} else if !removed[bf.Pred][keyOf(bf.Tuple)] {
				continue
			}
			over[s.predID][s.k] = true
			overTotal++
			break
		}
	}
	if overTotal == 0 {
		return inc.finish(nil)
	}
	// Snapshot the over-deleted tuples before removal: net with whatever
	// the rederivation brings back, they are the run's view delta.
	overTuples := make([]map[tupleKey]Tuple, len(e.idbNames))
	for id, m := range over {
		rel := e.idbByID[id]
		if len(m) > 0 {
			overTuples[id] = make(map[tupleKey]Tuple, len(m))
		}
		for k := range m {
			t := rel.get(k)
			overTuples[id][k] = t
			rel.Remove(t)
			delete(e.stageByID[id].m, k)
			delete(e.provByID[id], k)
		}
	}

	// Rederivation: resume the fixpoint over the survivors. Every firing
	// over the shrunken IDB and EDB lands inside the old fixpoint, so the
	// only tuples that can commit are over-deleted ones coming back; rules
	// whose head predicate lost nothing can be skipped in the full
	// re-firing round.
	e.tasks = e.tasks[:0]
	for ri, cr := range e.rules {
		if len(over[cr.headID]) > 0 {
			e.tasks = append(e.tasks, fireTask{ri: ri, deltaIdx: -1})
		}
	}
	var err error
	var readded []map[tupleKey]Tuple
	if len(e.tasks) > 0 {
		e.beginChanges()
		err = e.resumeFixpoint()
		readded = e.takeChanges()
	}
	if err == nil {
		// Rederivation can only re-commit over-deleted tuples (every firing
		// lands inside the old fixpoint), so the Added side nets to empty;
		// deltaOf computes it anyway rather than assume it.
		inc.lastDelta = inc.deltaOf(readded, overTuples)
	}
	return inc.finish(err)
}
