package service

import (
	"fmt"

	"repro/internal/datalog"
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
	// counters), taken under s.mu when the view was built and handed out
	// as it is: its map and slice are read-only like the views.
	stats ProgramStats
	// views holds every IDB predicate in the canonical CompareTuples order.
	// The slices are never written after publication; a predicate a commit
	// left unchanged shares its slice with the version before.
	views map[string][]datalog.Tuple
}

// snapshot builds the registration's next published form; the caller
// holds s.mu. With prev nil (registration) every view is sorted out of
// the maintained relations — the one sort a view ever gets; afterwards
// each commit patches the previous version's views with its net delta.
func (reg *registration) snapshot(prev *publishedProg, delta datalog.Delta) *publishedProg {
	res := reg.inc.Result()
	pp := &publishedProg{prog: reg.prog, views: make(map[string][]datalog.Tuple, len(res.IDB))}
	sizes := make(map[string]int, len(res.IDB))
	for pred, rel := range res.IDB {
		if prev == nil {
			pp.views[pred] = rel.Tuples()
		} else {
			pp.views[pred] = datalog.PatchSorted(prev.views[pred], delta.Added[pred], delta.Removed[pred])
		}
		sizes[pred] = rel.Size()
	}
	pp.stats = ProgramStats{
		Name: reg.name, Hash: reg.hash, Version: reg.version,
		Goal: reg.prog.Goal, Updates: reg.inc.Updates(),
		Rounds: res.Rounds, Derivations: res.Derivations, IDBSizes: sizes,
		MaintainTotalNs: reg.maintainTotal.Nanoseconds(),
		MaintainLastNs:  reg.maintainLast.Nanoseconds(),
	}
	if res.Stats != nil {
		pp.stats.Rules = res.Stats.Rules
		pp.stats.OverDeleted, pp.stats.Rederived = res.Stats.OverDeleted, res.Stats.Rederived
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
// was resolved against.
type resolved struct {
	pub *published
	// pp is non-nil iff the request named a registration.
	pp      *publishedProg
	prog    *datalog.Program
	hash    string
	pred    string
	version int64
}

// readView returns the sorted materialized view the request reads, when it
// names a registered program at the published version — the only version
// whose views are kept; older pinned versions are evaluated from their
// snapshot. The slice is shared with every other reader: read-only.
func (s *Service) readView(q resolved) ([]datalog.Tuple, bool) {
	if q.pp == nil || q.version != q.pub.version {
		return nil, false
	}
	s.met.viewReads.Inc()
	return q.pp.views[q.pred], true
}

// snapshotOf returns the EDB snapshot the request is pinned to.
func (s *Service) snapshotOf(q resolved) (*Snapshot, error) {
	if q.version == q.pub.version {
		return q.pub.snap, nil
	}
	if snap, ok := s.store.At(q.version); ok {
		return snap, nil
	}
	return nil, fmt.Errorf("service: version %d is not retained (oldest is %d, latest %d)",
		q.version, s.store.Oldest(), q.pub.version)
}
