package datalog

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// referenceOverDelete is the over-deletion DeleteContext performed before
// it followed use-lists, kept as the reference the worklist is checked
// against: collect every IDB tuple of the view, walk them in ascending
// first-derivation stage, and over-delete a tuple exactly when its witness
// cites a removed EDB fact or a tuple over-deleted earlier in the walk
// (witness bodies have strictly smaller stages, so they are decided
// first). It reads the same witness table and must be called before the
// batch is applied; it returns the over-deleted tuples per predicate,
// rendered.
func referenceOverDelete(inc *Incremental, batch []Fact) map[string]map[string]bool {
	e := inc.e
	w := e.wit
	dead := map[uint32]bool{}
	for _, f := range batch {
		if !inc.edbSet[f.Pred] || !inc.db.Relation(f.Pred).Has(f.Tuple) {
			continue
		}
		if r := w.find(w.tabID[f.Pred], keyOf(f.Tuple), f.Tuple); r != 0 {
			dead[r] = true
		}
	}
	type staged struct {
		row uint32
		id  int
		t   Tuple
	}
	var all []staged
	for id, rel := range e.idbByID {
		rel.Each(func(t Tuple) bool {
			all = append(all, staged{row: w.find(id, keyOf(t), t), id: id, t: t})
			return true
		})
	}
	sort.Slice(all, func(i, j int) bool { return w.rows[all[i].row].stage < w.rows[all[j].row].stage })
	over := map[string]map[string]bool{}
	for _, s := range all {
		base := w.rows[s.row].body
		for i := 0; i < w.bodyLen(s.row); i++ {
			if !dead[w.refs[base+uint32(i)].target] {
				continue
			}
			dead[s.row] = true
			name := e.idbNames[s.id]
			if over[name] == nil {
				over[name] = map[string]bool{}
			}
			over[name][s.t.String()] = true
			break
		}
	}
	return over
}

// lastOverDeleted renders what the last Delete over-deleted, in
// referenceOverDelete's shape.
func lastOverDeleted(inc *Incremental) map[string]map[string]bool {
	over := map[string]map[string]bool{}
	for id, rel := range inc.over {
		if rel.Size() == 0 {
			continue
		}
		m := map[string]bool{}
		rel.Each(func(t Tuple) bool { m[t.String()] = true; return true })
		over[inc.e.idbNames[id]] = m
	}
	return over
}

// maintenancePrograms are the shapes the delete path must get right: the
// head-seeded forms bind constants, repeated variables and
// universe-quantified variables of the head from a candidate tuple, and
// the witness table holds several predicates, mutual recursion and tuples
// too wide for a packed key.
var maintenancePrograms = []struct {
	name, source string
	universe     int // 0 draws a small one
}{
	{"tc", `S(x,y) :- E(x,y). S(x,y) :- E(x,z), S(z,y). goal S.`, 0},
	{"avoiding", AvoidingPathProgram().String(), 0},
	{"samegen", SameGenerationProgram().String(), 0},
	{"mutual", `
		Odd(x,y) :- E(x,y).
		Odd(x,y) :- E(x,z), Even(z,y).
		Even(x,y) :- E(x,z), Odd(z,y).
		goal Even.`, 0},
	{"headshapes", `
		P(0,y) :- E(y,z), F(z).
		Q(x,x) :- E(x,y), P(0,y).
		Q(2,w) :- Q(y,w), F(y).
		Q(w,4) :- F(z), E(v,z).
		Q(v,0) :- F(v), w = v.
		R(1,3) :- Q(x,x), E(x,1).
		goal Q.`, 0},
	{"universe", `
		T(x,y,w) :- E(x,y), w != x, w != y.
		T(x,y,w) :- T(x,z,w), E(z,y), w != y.
		U(x,w) :- T(x,x,w), F(u), u != w.
		goal T.`, 0},
	{"several", `
		A(1,2).
		A(x,y) :- E(x,y).
		B(x) :- A(x,y), A(y,x), x != y.
		C(x,y) :- B(x), A(x,y).
		C(x,y) :- C(x,z), E(z,y), F(z).
		goal C.`, 0},
	// Elements reach 16 and up, so an 8-tuple needs 8 bits an element and
	// spills; tuples over smaller elements in the same tables pack.
	{"wide", `
		W(a,b,c,d,a,b,c,d) :- E(a,b), E(c,d).
		W(a,b,c,d,e,f,g,h) :- W(a,b,c,d,x,f,g,h), E(x,e), F(e).
		V(a,h) :- B(a,b,c,d,e,f,g,h), W(a,b,a,b,a,b,a,b).
		goal V.`, 20},
}

// TestDeleteMatchesReferenceAndScratch drives randomized insert/delete
// schedules over maintenancePrograms and checks at every step the view against a from-scratch evaluation,
// LastDelta against the snapshot diff and the witness-table invariants —
// and at every delete step that the use-list worklist over-deleted exactly
// the set the stage-ordered reference walk marks from the same state.
// (Only the over-deleted sets are compared step by step: after a
// rederivation the two algorithms may legitimately record different
// witnesses, so their next over-deletions would differ.)
func TestDeleteMatchesReferenceAndScratch(t *testing.T) {
	const seeds, batches = 6, 16
	for _, pc := range maintenancePrograms {
		p, err := Parse(pc.source)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		var preds []string
		arity := p.Arities()
		for name := range p.EDBs() {
			preds = append(preds, name)
		}
		sort.Strings(preds)
		// Two halves of seeds, each with seeds of its own. The par1/par4
		// level of the subtest names stays fixed so that runs of the suite
		// compare by name across versions.
		for half, label := range []string{"par1", "par4"} {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", pc.name, label, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(977*(half*seeds+seed) + 13)))
					n := pc.universe
					if n == 0 {
						n = 5 + rng.Intn(5)
					}
					db := NewDatabase(n)
					for _, name := range preds {
						db.EnsureRelation(name, arity[name])
					}
					for i := 0; i < n*len(preds); i++ {
						f := randomFact(rng, preds, arity, n)
						db.AddFact(f.Pred, f.Tuple...)
					}
					inc, err := NewIncremental(p, db, DefaultOptions)
					if err != nil {
						t.Fatal(err)
					}
					checkWitnesses(t, inc)
					mirror := db.Clone()
					overDeleted := int64(0)
					for b := 0; b < batches; b++ {
						batch := make([]Fact, 1+rng.Intn(4))
						for i := range batch {
							batch[i] = randomFact(rng, preds, arity, n)
						}
						del := rng.Intn(3) > 0
						before := viewTuples(inc)
						if del {
							// Mostly target facts that exist, or nothing is over-deleted.
							for i := range batch {
								if r := mirror.Relation(batch[i].Pred); r.Size() > 0 && rng.Intn(4) > 0 {
									ts := r.Tuples()
									batch[i].Tuple = ts[rng.Intn(len(ts))]
								}
							}
							want := referenceOverDelete(inc, batch)
							if err := inc.Delete(batch...); err != nil {
								t.Fatal(err)
							}
							got := lastOverDeleted(inc)
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("batch %d, deleting %v: worklist over-deleted\n%v\nthe reference walk\n%v", b, batch, got, want)
							}
							for _, m := range got {
								overDeleted += int64(len(m))
							}
						} else if err := inc.Insert(batch...); err != nil {
							t.Fatal(err)
						}
						for _, f := range batch {
							if del {
								mirror.Relation(f.Pred).Remove(f.Tuple)
							} else {
								mirror.AddFact(f.Pred, f.Tuple...)
							}
						}
						label := fmt.Sprintf("batch %d (delete=%v %v)", b, del, batch)
						if msg, ok := sameIDB(inc, mustScratch(t, p, mirror)); !ok {
							t.Fatalf("%s: %s", label, msg)
						}
						wantAdd, wantRem := diffViews(before, viewTuples(inc))
						gotAdd, gotRem := deltaStrings(inc.LastDelta())
						sameStringSets(t, label+" added", gotAdd, wantAdd)
						sameStringSets(t, label+" removed", gotRem, wantRem)
						checkWitnesses(t, inc)
					}
					st := inc.Result().Stats
					if st.OverDeleted != overDeleted {
						t.Fatalf("Stats.OverDeleted = %d, the runs over-deleted %d", st.OverDeleted, overDeleted)
					}
					if st.Rederived > st.OverDeleted {
						t.Fatalf("Stats.Rederived = %d exceeds OverDeleted = %d", st.Rederived, st.OverDeleted)
					}
					t.Logf("over-deleted %d, rederived %d", st.OverDeleted, st.Rederived)
					if pc.name == "wide" && inc.e.wit.wide == nil {
						t.Fatal("no tuple took the spill-key path")
					}
				})
			}
		}
	}
}

// TestSeedRuleOrdersBoundAtomsFirst pins the head-seeded form: the seed
// atom over the head's arguments leads, the body follows with each next
// atom the one most bound by then, and origin maps back to body positions.
func TestSeedRuleOrdersBoundAtomsFirst(t *testing.T) {
	p, err := Parse(`P(x,y) :- A(u,v), B(v,x), C(u,y), u != x. goal P.`)
	if err != nil {
		t.Fatal(err)
	}
	sr, origin := seedRule(p.Rules[0])
	want := "P(x,y) :- \x00seed(x,y), B(v,x), A(u,v), C(u,y), u != x."
	if got := sr.String(); got != want {
		t.Fatalf("seeded rule is %q, want %q", got, want)
	}
	if fmt.Sprint(origin) != "[-1 1 0 2]" {
		t.Fatalf("origin = %v", origin)
	}
}

// TestWitnessIndexAgainstMap churns one witness table's index — inserts,
// lookups and releases over packed and spill keys — against a map.
func TestWitnessIndexAgainstMap(t *testing.T) {
	w := newWitnessStore(false, []string{"P"}, nil, map[string]int{"P": 8})
	w.setRules(nil)
	w.ruleHead = []int32{0}
	w.ruleBody = [][]int32{nil}
	rng := rand.New(rand.NewSource(5))
	ref := map[string]uint32{}
	var keys []string
	tuples := map[string]Tuple{}
	for step := 0; step < 20000; step++ {
		tup := make(Tuple, 8)
		for i := range tup {
			tup[i] = rng.Intn(3)
			if step%3 == 0 {
				tup[i] += 15 * rng.Intn(2) // 16 and 17 force a spill key
			}
		}
		name := tup.String()
		row, have := ref[name]
		if got := w.find(0, keyOf(tup), tup); got != row {
			t.Fatalf("step %d: find(%s) = %d, want %d", step, name, got, row)
		}
		switch {
		case !have:
			ref[name] = w.insert(0, keyOf(tup), tup, 0)
			keys = append(keys, name)
			tuples[name] = tup
		case rng.Intn(2) == 0:
			if got := w.tupleOf(row); got.String() != name {
				t.Fatalf("step %d: row %d reads back %v, want %s", step, row, got, name)
			}
			w.release(row)
			delete(ref, name)
		}
		if step%500 == 0 {
			for _, name := range keys {
				tup := tuples[name]
				if got := w.find(0, keyOf(tup), tup); got != ref[name] {
					t.Fatalf("step %d: find(%s) = %d, want %d", step, name, got, ref[name])
				}
			}
		}
	}
	if w.tabs[0].n != len(ref) {
		t.Fatalf("table counts %d rows, want %d", w.tabs[0].n, len(ref))
	}
}
