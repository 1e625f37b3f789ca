package datalog

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestProvenanceStillProves: every recorded first derivation unfolds into
// a proof whose leaves are EDB facts of the input database.
func TestProvenanceStillProves(t *testing.T) {
	g := graph.Random(8, 0.25, rand.New(rand.NewSource(23)))
	p := TransitiveClosureProgram()
	db := FromGraph(g)
	res, err := Eval(p, db, Options{SemiNaive: true, UseIndexes: true, TrackProvenance: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range res.IDB["S"].Tuples() {
		proof, err := res.Prove(p, "S", tup)
		if err != nil {
			t.Fatalf("no proof for S%v: %v", tup, err)
		}
		for _, leaf := range proof.Leaves() {
			if leaf.Pred != "E" || !db.Relation("E").Has(leaf.Tuple) {
				t.Fatalf("proof of S%v rests on non-EDB leaf %s", tup, leaf)
			}
		}
	}
}

// TestMaxRoundsTruncatesToStages: on the directed path 0 → … → 29, round r
// of the transitive closure derives exactly the pairs (i, i+r), so
// MaxRounds r leaves the pairs at distance 1..r, each at its distance as
// its stage, under both engines.
func TestMaxRoundsTruncatesToStages(t *testing.T) {
	const n = 30
	g := graph.DirectedPath(n)
	for _, semi := range []bool{false, true} {
		for _, rounds := range []int{1, 2, 5} {
			res, err := Eval(TransitiveClosureProgram(), FromGraph(g),
				Options{SemiNaive: semi, UseIndexes: true, MaxRounds: rounds})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != rounds {
				t.Fatalf("semi=%v MaxRounds=%d: rounds = %d", semi, rounds, res.Rounds)
			}
			want := 0
			for d := 1; d <= rounds; d++ {
				want += n - d
			}
			S := res.IDB["S"]
			if S.Size() != want {
				t.Fatalf("semi=%v MaxRounds=%d: |S| = %d, want %d", semi, rounds, S.Size(), want)
			}
			for _, tup := range S.Tuples() {
				d := tup[1] - tup[0]
				if d < 1 || d > rounds {
					t.Fatalf("semi=%v MaxRounds=%d: S%v is not within %d steps", semi, rounds, tup, rounds)
				}
				if st, ok := res.StageOf("S", tup); !ok || st != d {
					t.Fatalf("semi=%v MaxRounds=%d: stage of S%v = %d/%v, want %d", semi, rounds, tup, st, ok, d)
				}
			}
		}
	}
}

func TestEvalDoesNotMutateInputDatabase(t *testing.T) {
	p := TransitiveClosureProgram()
	db := NewDatabase(4)
	res, err := Eval(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if res.IDB["S"].Size() != 0 {
		t.Fatal("no edges should mean empty closure")
	}
	if db.Relation("E") != nil {
		t.Fatal("Eval created the missing EDB relation in the caller's database")
	}
	if len(db.Names()) != 0 {
		t.Fatalf("Eval left relations behind: %v", db.Names())
	}
}

func TestTopDownDoesNotMutateInputDatabase(t *testing.T) {
	p := TransitiveClosureProgram()
	db := NewDatabase(4)
	td, err := NewTopDown(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := td.Ask(NewGoal("S", 2, nil)); len(got) != 0 {
		t.Fatalf("derived %v from an empty database", got)
	}
	if db.Relation("E") != nil {
		t.Fatal("NewTopDown created the missing EDB relation in the caller's database")
	}
}
