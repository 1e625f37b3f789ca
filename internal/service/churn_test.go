package service

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datalog"
)

// TestChurnCommitAllocations is the cost guard on the write path: on the
// end-to-end benchmark's state — a uniform 8192-node, 6500-edge digraph
// under its three programs — a stationary commit, four edges in and four
// out, must allocate like a change of eight edges and not like the 31k
// tuples of the views. Before delete maintenance followed use-lists a
// commit here allocated 18.5 MB in 173k objects, which is what held the
// server's heap at three times its live data; while every changed view was
// copied whole on publication it allocated 922 KB, and with chunked views
// 170 KB.
func TestChurnCommitAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full benchmark state")
	}
	const universe, edges, batch, lag, warm, commits = 8192, 6500, 4, 8, 16, 64
	s, err := New(Config{Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1990))
	have := map[[2]int]bool{}
	draw := func() datalog.Fact {
		for {
			e := [2]int{rng.Intn(universe), rng.Intn(universe)}
			if !have[e] {
				have[e] = true
				return edge(e[0], e[1])
			}
		}
	}
	setup := make([]datalog.Fact, edges)
	for i := range setup {
		setup[i] = draw()
	}
	if _, err := s.Commit(setup, nil); err != nil {
		t.Fatal(err)
	}
	for name, source := range map[string]string{
		"tc": tcSource, "hop2": hop2Source,
		"disj2": datalog.TwoDisjointPathsAcyclicProgram(1, 2, 3, 4).String(),
	} {
		if _, err := s.Register(name, source); err != nil {
			t.Fatal(err)
		}
	}
	// Each commit deletes what the commit lag earlier inserted — at first
	// the tail of the set-up graph — so every view keeps its size.
	ring := make([][]datalog.Fact, lag)
	for i := range ring {
		ring[i] = setup[edges-(lag-i)*batch : edges-(lag-i-1)*batch]
	}
	churn := func() {
		ins := make([]datalog.Fact, batch)
		for i := range ins {
			ins[i] = draw()
		}
		info, err := s.Commit(ins, ring[0])
		if err != nil {
			t.Fatal(err)
		}
		if info.Inserted != batch || info.Deleted != batch {
			t.Fatalf("commit changed +%d -%d edges, want +%d -%d", info.Inserted, info.Deleted, batch, batch)
		}
		ring = append(ring[1:], ins)
	}
	for i := 0; i < warm; i++ {
		churn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < commits; i++ {
		churn()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / commits
	objects := (after.Mallocs - before.Mallocs) / commits
	tuples := 0
	for _, p := range s.Stats().Programs {
		for _, n := range p.IDBSizes {
			tuples += n
		}
	}
	t.Logf("a churn commit allocates %d KB in %d objects (views: %d tuples)", bytes>>10, objects, tuples)
	if bytes >= 256<<10 || objects >= 10000 {
		t.Fatalf("a churn commit allocates %d bytes in %d objects; want under 256 KB and 10000", bytes, objects)
	}
}

// TestRegistrationsShareIndexBuilds registers the benchmark's three
// programs over one snapshot: each registration ensures the indexes its
// compiled forms probe on the snapshot's own relation before cloning it, so
// E is indexed once per column mask — not once per registration's private
// clone — and a bound goal at that version, whose rewritten rules probe the
// same masks, builds nothing.
func TestRegistrationsShareIndexBuilds(t *testing.T) {
	s, err := New(Config{Universe: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	var setup []datalog.Fact
	for i := 0; i < 80; i++ {
		setup = append(setup, edge(rng.Intn(64), rng.Intn(64)))
	}
	if _, err := s.Commit(setup, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct{ name, source string }{
		{"tc", tcSource}, {"hop2", hop2Source},
		{"disj2", datalog.TwoDisjointPathsAcyclicProgram(1, 2, 3, 4).String()},
	} {
		if _, err := s.Register(p.name, p.source); err != nil {
			t.Fatal(err)
		}
	}
	// E on its first column and E on its second.
	if got := indexBuilds(t, s); got != 2 {
		t.Fatalf("three registrations built %d indexes, want one per (relation, mask): 2", got)
	}
	x := 5
	if _, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: []*int{&x, nil}}); err != nil {
		t.Fatal(err)
	}
	if got := indexBuilds(t, s); got != 2 {
		t.Fatalf("a bound goal after the registrations took the index builds to %d, want 2", got)
	}
}
