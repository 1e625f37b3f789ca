package service

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datalog"
)

// The service-level maintenance invariant: after every commit of a random
// insert/delete batch, each registered program's materialized IDB equals
// a from-scratch evaluation of the committed snapshot, and each published
// sorted view — patched, never re-sorted — equals its maintained relation
// sorted afresh. Driven through testing/quick so each counterexample is a
// reproducible seed.

const avoidingSource = `
T(x, y, w) :- E(x, y), w != x, w != y.
T(x, y, w) :- E(x, z), T(z, y, w), w != x.
goal T.
`

// maintainedEqualsScratch runs one randomized workload: a fresh service
// with two registered programs, 10 commits of mixed insert/delete
// batches, comparing materialized against scratch after every commit.
func maintainedEqualsScratch(seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(5)
	s, err := New(Config{Universe: n, History: 4})
	if err != nil {
		return false
	}
	progs := map[string]string{"tc": tcSource, "avoid": avoidingSource}
	for name, src := range progs {
		if _, err := s.Register(name, src); err != nil {
			return false
		}
	}
	for commit := 0; commit < 10; commit++ {
		var ins, del []datalog.Fact
		for i := 0; i < 1+rng.Intn(4); i++ {
			f := edge(rng.Intn(n), rng.Intn(n))
			if rng.Intn(3) == 0 {
				del = append(del, f)
			} else {
				ins = append(ins, f)
			}
		}
		if _, err := s.Commit(ins, del); err != nil {
			return false
		}
		if publishedMatchesViews(s) != nil {
			return false
		}
		snap := s.Store().Latest()
		for name, src := range progs {
			p, err := datalog.Parse(src)
			if err != nil {
				return false
			}
			want, err := datalog.Eval(p, snap.DB, datalog.DefaultOptions)
			if err != nil {
				return false
			}
			got, err := s.Query(QueryRequest{Program: name, Version: snap.Version})
			if err != nil || got.Origin != "materialized" {
				return false
			}
			goal := want.Goal(p)
			if len(got.Tuples) != goal.Size() {
				return false
			}
			for _, t := range got.Tuples {
				if !goal.Has(t) {
					return false
				}
			}
		}
	}
	return true
}

func TestQuickMaintainedEqualsScratch(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(maintainedEqualsScratch, cfg); err != nil {
		t.Fatal(err)
	}
}
