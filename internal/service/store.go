// Package service is the long-lived, concurrent Datalog(≠) service layer:
// a versioned EDB store with copy-on-write snapshots, registered programs
// whose fixpoints are maintained incrementally across commits (delta
// seeding for insertions, delete-and-rederive for deletions — see
// internal/datalog's Incremental) and whose sorted views are published to
// readers with one pointer store per commit (publish.go), and a
// bounded-worker executor so many clients can evaluate concurrently against
// shared snapshots; every read that is not of a published view evaluates.
// The HTTP front end in http.go exposes it as /register, /commit, /query
// and /stats; cmd/serve runs it.
package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/datalog"
	"repro/internal/plan"
)

// Snapshot is one immutable version of the EDB. The database must never
// be mutated after publication; commits fork the relations they touch and
// leave prior snapshots intact, so any number of evaluations read DB
// directly, concurrently, without coordinating with each other or with
// later commits. A fork shares every bucket of tuples and of join indexes
// it does not change with the version it came from, so retaining a
// version costs memory in proportion to its commit's batch, and a join
// index is built at most once — by the first evaluation that probes a
// relation on a column mask no earlier version was probed on — and
// inherited by every version after.
type Snapshot struct {
	Version  int64
	DB       *datalog.Database
	Inserted int // facts actually added by the commit that produced this version
	Deleted  int // facts actually removed by that commit
	Facts    int // total facts across all relations
	// Stats is the planner's statistics catalog for this version; the
	// service itself no longer plans, and only the end-to-end benchmark's
	// -trace replay reads it. Like the database it is immutable; Fork
	// advances the previous snapshot's entries of the relations the batch
	// touched by the facts it actually removed and added and shares the
	// rest, so the per-commit cost is proportional to the batch, not to the
	// relations it lands in.
	Stats *plan.Catalog
}

// Store is the versioned EDB store: an in-order history of copy-on-write
// snapshots with a monotonically increasing version counter. Version 0 is
// the empty database over the configured universe.
type Store struct {
	mu      sync.RWMutex
	history int
	snaps   []*Snapshot // ascending versions; at least one entry
	// indexBuilds counts the join indexes built on snapshot relations (and
	// on clones of them).
	indexBuilds atomic.Int64
}

// NewStore returns a store over an n-element universe retaining at most
// history snapshots (minimum 1; the latest is always retained).
func NewStore(n, history int) *Store {
	return NewStoreAt(datalog.NewDatabase(n), 0, history)
}

// NewStoreAt returns a store whose first retained snapshot is the given
// database at the given version — the recovery entry point: the database
// comes from a checkpoint and WAL replay commits on top of it. Versions
// below the checkpoint are not retained (their snapshots no longer
// exist), so the queryable history window after a restart begins at the
// checkpoint and grows forward as replay and live commits add versions.
func NewStoreAt(db *datalog.Database, version int64, history int) *Store {
	if history < 1 {
		history = 1
	}
	snap := &Snapshot{Version: version, DB: db, Stats: plan.Collect(db)}
	for _, name := range db.Names() {
		snap.Facts += db.Relation(name).Size()
	}
	s := &Store{history: history, snaps: []*Snapshot{snap}}
	db.CountIndexBuilds(&s.indexBuilds)
	return s
}

// IndexBuilds returns how many join indexes have been built on the
// store's relations: one per (relation, column mask) the first time an
// evaluation probes it, none for the versions that inherit it.
func (s *Store) IndexBuilds() int64 { return s.indexBuilds.Load() }

// Latest returns the current snapshot.
func (s *Store) Latest() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snaps[len(s.snaps)-1]
}

// Version returns the current version.
func (s *Store) Version() int64 { return s.Latest().Version }

// Oldest returns the oldest retained version.
func (s *Store) Oldest() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snaps[0].Version
}

// At returns the snapshot at the given version, or false if it has been
// evicted from the history (or never existed).
func (s *Store) At(version int64) (*Snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo := s.snaps[0].Version
	i := version - lo
	if i < 0 || i >= int64(len(s.snaps)) {
		return nil, false
	}
	return s.snaps[i], true
}

// Snapshots returns the retained history, oldest first.
func (s *Store) Snapshots() []*Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Snapshot, len(s.snaps))
	copy(out, s.snaps)
	return out
}

// validate checks a commit batch against the current snapshot without
// mutating anything: every element must lie in the universe, and every
// fact's arity must agree with the existing relation of the same name (or
// with earlier facts of the batch for a new relation).
func (s *Store) validate(db *datalog.Database, batch []datalog.Fact) error {
	arities := map[string]int{}
	for _, f := range batch {
		if f.Pred == "" {
			return fmt.Errorf("service: fact with empty predicate name")
		}
		if len(f.Tuple) == 0 {
			return fmt.Errorf("service: fact %s has no arguments", f.Pred)
		}
		for _, x := range f.Tuple {
			if x < 0 || x >= db.N {
				return fmt.Errorf("service: fact %s has element %d outside the universe of size %d", f, x, db.N)
			}
		}
		want := -1
		if r := db.Relation(f.Pred); r != nil {
			want = r.Arity
		} else if a, ok := arities[f.Pred]; ok {
			want = a
		}
		if want >= 0 && len(f.Tuple) != want {
			return fmt.Errorf("service: fact %s has arity %d but relation %s has arity %d",
				f, len(f.Tuple), f.Pred, want)
		}
		arities[f.Pred] = len(f.Tuple)
	}
	return nil
}

// Fork validates a batch against the current snapshot and builds the next
// version beside it — deletions first, then insertions — without
// installing it: until Install the store still ends at the snapshot it
// forked from, so a caller whose write-ahead append is refused drops the
// fork and nothing happened. On a validation error no version is built.
// Prior snapshots are untouched: only the relations the batch names are
// forked, and within them only the buckets the batch lands in are copied.
// Fork and Install are the writer's two halves of one commit; the service
// calls them under its writer lock.
func (s *Store) Fork(insert, del []datalog.Fact) (*Snapshot, error) {
	prev := s.Latest()
	if err := s.validate(prev.DB, del); err != nil {
		return nil, err
	}
	if err := s.validate(prev.DB, insert); err != nil {
		return nil, err
	}
	touched := map[string]bool{}
	var names []string
	for _, f := range append(del[:len(del):len(del)], insert...) {
		if !touched[f.Pred] {
			touched[f.Pred] = true
			names = append(names, f.Pred)
		}
	}
	db := prev.DB.Fork(names...)
	next := &Snapshot{Version: prev.Version + 1, DB: db}
	removed := make([]datalog.Fact, 0, len(del))
	for _, f := range del {
		if r := db.Relation(f.Pred); r != nil && r.Remove(f.Tuple) {
			removed = append(removed, f)
		}
	}
	added := make([]datalog.Fact, 0, len(insert))
	for _, f := range insert {
		if db.EnsureRelation(f.Pred, len(f.Tuple)).Add(f.Tuple) {
			added = append(added, f)
		}
	}
	next.Deleted, next.Inserted = len(removed), len(added)
	next.Facts = prev.Facts - next.Deleted + next.Inserted
	next.Stats = prev.Stats.Advance(db, removed, added)
	return next, nil
}

// Install makes a snapshot Fork returned the current version, trimming
// the history window.
func (s *Store) Install(next *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snaps = append(s.snaps, next)
	if len(s.snaps) > s.history {
		copy(s.snaps, s.snaps[len(s.snaps)-s.history:])
		s.snaps = s.snaps[:s.history]
	}
}
