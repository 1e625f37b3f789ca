package datalog

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// churnGraph is the end-to-end benchmark's EDB shape (churnBase as E): a
// sub-critical uniform digraph whose closure is some four times its edge
// count.
func churnGraph() *Database {
	db := NewDatabase(8192)
	db.rels["E"] = churnBase()
	return db
}

// TestDeleteCostFollowsChange deletes a pendant edge from a 25k-tuple
// closure: the edge a→b to a node with no other edge, from a node at most
// three others reach. It over-deletes the at most four paths ending in b,
// none of which is derivable again, so the delete must cost a handful of
// probes — a use-list walk and one head-seeded round that brings nothing
// back and so starts no continuation — where the stage-ordered walk looked
// at 25k witnesses and a full round re-fired E ⋈ S.
func TestDeleteCostFollowsChange(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full benchmark state")
	}
	db := churnGraph()
	p := TransitiveClosureProgram()
	inc, err := NewIncremental(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	s := inc.Result().Goal(p)
	if s.Size() < 25000 {
		t.Fatalf("the closure has %d tuples, want at least 25000", s.Size())
	}
	touched := make([]bool, db.N)  // has an edge
	reachedBy := make([]int, db.N) // closure tuples ending here
	db.Relation("E").Each(func(e Tuple) bool { touched[e[0]], touched[e[1]] = true, true; return true })
	s.Each(func(e Tuple) bool { reachedBy[e[1]]++; return true })
	a, b := -1, -1
	for v := 0; v < db.N && (a < 0 || b < 0); v++ {
		switch {
		case !touched[v]:
			b = v
		case reachedBy[v] >= 1 && reachedBy[v] <= 3:
			a = v
		}
	}
	if a < 0 || b < 0 {
		t.Fatal("no pendant edge to add")
	}
	pendant := Fact{Pred: "E", Tuple: Tuple{a, b}}
	if err := inc.Insert(pendant); err != nil {
		t.Fatal(err)
	}
	k := reachedBy[a] + 1
	if got := len(inc.LastDelta().Added["S"]); got != k {
		t.Fatalf("the pendant edge added %d paths, want %d", got, k)
	}
	before := inc.Result()
	if err := inc.Delete(pendant); err != nil {
		t.Fatal(err)
	}
	after := inc.Result()
	if got := len(inc.LastDelta().Removed["S"]); got != k {
		t.Fatalf("deleting the pendant edge removed %d paths, want %d", got, k)
	}
	if od, rd := after.Stats.OverDeleted-before.Stats.OverDeleted, after.Stats.Rederived-before.Stats.Rederived; od != int64(k) || rd != 0 {
		t.Fatalf("over-deleted %d and rederived %d, want %d and 0", od, rd, k)
	}
	if rounds := after.Rounds - before.Rounds; rounds != 1 {
		t.Fatalf("the delete ran %d rounds, want the head-seeded round alone", rounds)
	}
	cost := after.Stats.Probes - before.Stats.Probes + int64(after.Derivations-before.Derivations)
	t.Logf("deleting a pendant edge over-deleted %d of %d tuples for %d probes + derivations", k, s.Size()+k, cost)
	if cost >= 200 {
		t.Fatalf("the delete cost %d probes + derivations, want under 200", cost)
	}
}

// TestInsertCostFollowsChange inserts four edges into the same closure, a
// churn commit's insert half. Led by the new edges, E(x,z), S(z,y) probes S
// once per edge and the continuation probes E once per new path, so the
// insert must cost about what it derives — where a rule opening with a scan
// of all 6,500 edges cost some 37k probes, round after round. Registering
// the view is held to the same: led by S's delta, every round probes E once
// per tuple the round before added.
func TestInsertCostFollowsChange(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full benchmark state")
	}
	db := churnGraph()
	p := TransitiveClosureProgram()
	inc, err := NewIncremental(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	before := inc.Result()
	size := before.Goal(p).Size()
	// A scan is one probe; after round 1, a probe of E per tuple added.
	if got, limit := before.Stats.Probes, int64(size+size/4); got > limit {
		t.Fatalf("registering the %d-tuple view cost %d probes, want at most %d", size, got, limit)
	}
	rng := rand.New(rand.NewSource(7))
	var batch []Fact
	for len(batch) < 4 {
		if e := randTuple(rng, 2, db.N); !db.Relation("E").Has(e) {
			batch = append(batch, Fact{Pred: "E", Tuple: e})
		}
	}
	if err := inc.Insert(batch...); err != nil {
		t.Fatal(err)
	}
	after := inc.Result()
	added := len(inc.LastDelta().Added["S"])
	cost := after.Stats.Probes - before.Stats.Probes + int64(after.Derivations-before.Derivations)
	t.Logf("registration: %d probes for %d tuples; inserting four edges added %d paths for %d probes + derivations",
		before.Stats.Probes, size, added, cost)
	if added < 4 {
		t.Fatalf("four new edges added %d paths", added)
	}
	if cost >= 500 {
		t.Fatalf("the insert cost %d probes + derivations, want under 500", cost)
	}
}

// TestIndexListsGiveCapacityBack runs 3,000 stationary churn commits — four
// fresh random edges in, the four inserted eight commits earlier out — into
// the benchmark's closure and sums the join indexes' tuple lists: their
// capacity must stay within four times their length. Lists that only
// swap-delete and append keep their historical maximum: before removal gave
// capacity back, these commits left 41.5k listed tuples in 184k slots
// (4.4x), and 108k (2.6x) after.
func TestIndexListsGiveCapacityBack(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full benchmark state")
	}
	db := churnGraph()
	p := TransitiveClosureProgram()
	inc, err := NewIncremental(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	edges := inc.DB().Relation("E")
	ring := make([][]Fact, 8)
	for i, e := range edges.Tuples()[:32] {
		ring[i/4] = append(ring[i/4], Fact{Pred: "E", Tuple: e})
	}
	for commit := 0; commit < 3000; commit++ {
		ins := make([]Fact, 0, 4)
		for len(ins) < 4 {
			e := Tuple{rng.Intn(db.N), rng.Intn(db.N)}
			if !edges.Has(e) && !slices.ContainsFunc(ins, func(f Fact) bool { return CompareTuples(f.Tuple, e) == 0 }) {
				ins = append(ins, Fact{Pred: "E", Tuple: e})
			}
		}
		if err := inc.Delete(ring[0]...); err != nil {
			t.Fatal(err)
		}
		if err := inc.Insert(ins...); err != nil {
			t.Fatal(err)
		}
		ring = append(ring[1:], ins)
	}
	lens, caps := 0, 0
	for _, rel := range []*Relation{edges, inc.Result().IDB["S"]} {
		for _, ix := range rel.indexes() {
			for _, b := range ix.t.dir {
				if b == nil {
					continue
				}
				for _, l := range b.vals {
					lens, caps = lens+len(l), caps+cap(l)
				}
			}
		}
	}
	t.Logf("after 3000 churn commits the join indexes hold %d tuples in %d slots (%.2fx)", lens, caps, float64(caps)/float64(lens))
	if caps > 4*lens {
		t.Fatalf("the join indexes hold %d tuples in %d slots, want at most 4x", lens, caps)
	}
}

// TestWitnessRetainedBytes measures, by TestForkRetainedBytes' method, what
// the witness table of the benchmark's three maintained views retains: the
// heap with the views live, less the heap once they have let go of the
// table. Stages, witnesses, use-lists and the tuple index together must
// stay under 96 bytes a view tuple (map[tupleKey]*Derivation, with a stage
// map beside it, held some 400).
func TestWitnessRetainedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full benchmark state")
	}
	db := churnGraph()
	hop2, err := Parse(`J(x,y) :- E(x,z), E(z,y), x != y. goal J.`)
	if err != nil {
		t.Fatal(err)
	}
	var views []*Incremental
	tuples := 0
	for _, p := range []*Program{TransitiveClosureProgram(), hop2, TwoDisjointPathsAcyclicProgram(1, 2, 3, 4)} {
		inc, err := NewIncremental(p, db, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range inc.Result().IDB {
			tuples += rel.Size()
		}
		views = append(views, inc)
	}
	with := liveHeap()
	for _, inc := range views {
		inc.e.wit = nil
		for _, st := range inc.e.stage {
			st.wit = nil
		}
	}
	without := liveHeap()
	runtime.KeepAlive(views)
	per := float64(with-without) / float64(tuples)
	t.Logf("the witness tables of %d view tuples retain %d KB: %.1f bytes a tuple", tuples, (with-without)>>10, per)
	if per > 96 {
		t.Fatalf("the witness tables retain %.1f bytes a view tuple, want at most 96", per)
	}
}
