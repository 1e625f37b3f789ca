package datalog

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// graphFromSeed derives a small random graph deterministically from a seed,
// for use as a testing/quick generator.
func graphFromSeed(seed int64, n int, p float64) *graph.Graph {
	return graph.Random(n, p, rand.New(rand.NewSource(seed)))
}

func TestQuickNaiveEquivalentToSemiNaive(t *testing.T) {
	progs := []*Program{
		TransitiveClosureProgram(),
		AvoidingPathProgram(),
		QklPrograms(2, 0),
	}
	prop := func(seed int64, pick uint8) bool {
		p := progs[int(pick)%len(progs)]
		db := FromGraph(graphFromSeed(seed, 6, 0.3))
		naive, err := Eval(p, db.Clone(), Options{SemiNaive: false, UseIndexes: false})
		if err != nil {
			return false
		}
		semi, err := Eval(p, db.Clone(), Options{SemiNaive: true, UseIndexes: true})
		if err != nil {
			return false
		}
		for name, rel := range naive.IDB {
			if rel.Size() != semi.IDB[name].Size() {
				return false
			}
			for _, tup := range rel.Tuples() {
				if !semi.IDB[name].Has(tup) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMonotoneInEDB(t *testing.T) {
	// Datalog(≠) queries are monotone: any EDB superset derives a superset.
	prop := func(seed int64, extra uint16) bool {
		g := graphFromSeed(seed, 6, 0.2)
		before := MustEval(AvoidingPathProgram(), FromGraph(g))
		g2 := g.Clone()
		u := int(extra) % 6
		v := int(extra>>4) % 6
		if u != v {
			g2.AddEdge(u, v)
		}
		after := MustEval(AvoidingPathProgram(), FromGraph(g2))
		for _, tup := range before.IDB["T"].Tuples() {
			if !after.IDB["T"].Has(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInvariantUnderRenaming(t *testing.T) {
	// Datalog(≠) semantics commute with injective renamings of the
	// universe (queries are generic).
	prop := func(seed int64, permSeed int64) bool {
		g := graphFromSeed(seed, 6, 0.3)
		perm := rand.New(rand.NewSource(permSeed)).Perm(6)
		h := graph.New(6)
		for _, e := range g.Edges() {
			h.AddEdge(perm[e[0]], perm[e[1]])
		}
		rg := MustEval(TransitiveClosureProgram(), FromGraph(g))
		rh := MustEval(TransitiveClosureProgram(), FromGraph(h))
		if rg.IDB["S"].Size() != rh.IDB["S"].Size() {
			return false
		}
		for _, tup := range rg.IDB["S"].Tuples() {
			if !rh.IDB["S"].Has(Tuple{perm[tup[0]], perm[tup[1]]}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStagesAreBounded(t *testing.T) {
	// On a structure with s elements the fixpoint of an arity-r IDB is
	// reached within s^r stages (Section 2).
	prop := func(seed int64) bool {
		g := graphFromSeed(seed, 5, 0.3)
		res := MustEval(TransitiveClosureProgram(), FromGraph(g))
		bound := 1
		for i := 0; i < 2; i++ { // arity 2
			bound *= 5
		}
		return res.Rounds <= bound+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseRoundTrip(t *testing.T) {
	// Printing and reparsing a generated Qkl program is the identity.
	prop := func(k8, l8 uint8) bool {
		k := 1 + int(k8)%3
		l := int(l8) % 3
		p := QklPrograms(k, l)
		q, err := Parse(p.String())
		if err != nil {
			return false
		}
		return q.String() == p.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
