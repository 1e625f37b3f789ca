package service

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog"
)

// Sharded service ≡ single-node service: the same registration and
// commit sequence against Config.Shards 4 and an unsharded twin must
// produce identical query answers (same canonical order), identical
// subscription deltas, and a working materialized fast path.
func TestShardedServiceMatchesSingleNode(t *testing.T) {
	single, err := New(Config{Universe: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := New(Config{Universe: 32, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for _, s := range []*Service{single, sharded} {
		if _, err := s.Register("tc", tcSource); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(31))
	var live []datalog.Fact
	for step := 0; step < 30; step++ {
		var ins, del []datalog.Fact
		if len(live) > 4 && rng.Intn(4) == 0 {
			i := rng.Intn(len(live))
			del = append(del, live[i])
			live = append(live[:i], live[i+1:]...)
		} else {
			f := edge(rng.Intn(32), rng.Intn(32))
			ins = append(ins, f)
			live = append(live, f)
		}
		i1, err := single.Commit(ins, del)
		if err != nil {
			t.Fatalf("step %d: single: %v", step, err)
		}
		i2, err := sharded.Commit(ins, del)
		if err != nil {
			t.Fatalf("step %d: sharded: %v", step, err)
		}
		if i1.Version != i2.Version {
			t.Fatalf("step %d: version %d vs %d", step, i1.Version, i2.Version)
		}
		for _, s := range []*Service{single, sharded} {
			if err := publishedMatchesViews(s); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		r1, err := single.Query(QueryRequest{Program: "tc", Version: -1})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sharded.Query(QueryRequest{Program: "tc", Version: -1})
		if err != nil {
			t.Fatal(err)
		}
		if r2.Origin != "materialized" {
			t.Fatalf("step %d: sharded query origin %q, want materialized view", step, r2.Origin)
		}
		if fmt.Sprint(r1.Tuples) != fmt.Sprint(r2.Tuples) {
			t.Fatalf("step %d: answers differ\nsingle:  %v\nsharded: %v", step, r1.Tuples, r2.Tuples)
		}
	}

	// Bound (magic) queries read snapshot clones, not the coordinator —
	// they must agree too.
	b := 0
	q := QueryRequest{Program: "tc", Version: -1, Bind: []*int{&b, nil}}
	r1, err := single.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sharded.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1.Tuples) != fmt.Sprint(r2.Tuples) {
		t.Fatalf("bound answers differ\nsingle:  %v\nsharded: %v", r1.Tuples, r2.Tuples)
	}

	st := sharded.Stats()
	if !st.Sharding.Enabled || st.Sharding.Workers != 4 {
		t.Fatalf("sharding stats = %+v, want enabled with 4 workers", st.Sharding)
	}
	if st.Sharding.ExchangeRounds == 0 {
		t.Fatalf("sharded commits recorded no exchange rounds")
	}
	var prog *ProgramStats
	for i := range st.Programs {
		if st.Programs[i].Name == "tc" {
			prog = &st.Programs[i]
		}
	}
	if prog == nil || prog.Sharding == nil || prog.Sharding.Shards != 4 {
		t.Fatalf("program stats missing sharding block: %+v", prog)
	}
	if single.Stats().Sharding.Enabled {
		t.Fatalf("single-node service reports sharding enabled")
	}
}

// Subscription deltas published by a sharded service must match the
// single-node deltas commit for commit.
func TestShardedSubscriptionDeltas(t *testing.T) {
	single, err := New(Config{Universe: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := New(Config{Universe: 16, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for _, s := range []*Service{single, sharded} {
		if _, err := s.Register("tc", tcSource); err != nil {
			t.Fatal(err)
		}
	}
	commits := [][2][]datalog.Fact{
		{{edge(0, 1), edge(1, 2)}, nil},
		{{edge(2, 3)}, nil},
		{nil, {edge(1, 2)}},
		{{edge(1, 2)}, {edge(0, 1)}},
	}
	for i, c := range commits {
		if _, err := single.Commit(c[0], c[1]); err != nil {
			t.Fatalf("commit %d: single: %v", i, err)
		}
		if _, err := sharded.Commit(c[0], c[1]); err != nil {
			t.Fatalf("commit %d: sharded: %v", i, err)
		}
		if err := publishedMatchesViews(sharded); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	histOf := func(s *Service) []hubCommit {
		s.subs.mu.Lock()
		defer s.subs.mu.Unlock()
		return append([]hubCommit(nil), s.subs.hist...)
	}
	h1, h2 := histOf(single), histOf(sharded)
	if len(h1) != len(h2) {
		t.Fatalf("history length %d vs %d", len(h1), len(h2))
	}
	for i := range h1 {
		d1 := fmt.Sprint(h1[i].byProg)
		d2 := fmt.Sprint(h2[i].byProg)
		if h1[i].version != h2[i].version || d1 != d2 {
			t.Fatalf("commit %d: delta differs\nsingle:  v%d %s\nsharded: v%d %s",
				i, h1[i].version, d1, h2[i].version, d2)
		}
	}
}
