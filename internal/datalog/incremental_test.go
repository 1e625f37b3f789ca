package datalog

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sameIDB reports whether the maintained view and a from-scratch
// evaluation agree on every IDB relation, returning a description of the
// first difference.
func sameIDB(inc *Incremental, scratch *Result) (string, bool) {
	got := inc.Result().IDB
	want := scratch.IDB
	if len(got) != len(want) {
		return fmt.Sprintf("IDB predicate sets differ: %d vs %d", len(got), len(want)), false
	}
	for name, wr := range want {
		gr := got[name]
		if gr == nil {
			return fmt.Sprintf("missing IDB relation %s", name), false
		}
		if gr.Size() != wr.Size() {
			return fmt.Sprintf("%s has %d tuples, want %d", name, gr.Size(), wr.Size()), false
		}
		for _, t := range wr.Tuples() {
			if !gr.Has(t) {
				return fmt.Sprintf("%s missing tuple %v", name, t), false
			}
		}
	}
	return "", true
}

// checkWitnesses verifies the DRed invariants on the witness table. Every
// maintained IDB tuple has a row with a recorded witness whose EDB body
// facts are present in the owned database, whose IDB body facts are still
// derived, and whose body stages are strictly smaller than the head's
// stage (acyclicity); no table indexes a freed row or a row of another
// predicate. And the use-lists are consistent: every body reference of
// every live witness is on exactly one use-list, the one of the fact it
// cites, and no use-list holds anything else.
func checkWitnesses(t *testing.T, inc *Incremental) {
	t.Helper()
	e := inc.e
	w := e.wit
	live := map[uint32]bool{}
	for tab := range w.tabs {
		n := 0
		for _, r := range w.tabs[tab].slots {
			if r == 0 {
				continue
			}
			n++
			if rw := w.rows[r]; rw.rule == freeRule || rw.stage == deadStage {
				t.Fatalf("table %s indexes freed row %d", w.tabs[tab].name, r)
			}
			if got := w.tabOf(r); got != tab {
				t.Fatalf("table %s indexes row %d of table %s", w.tabs[tab].name, r, w.tabs[got].name)
			}
			live[r] = true
		}
		if n != w.tabs[tab].n {
			t.Fatalf("table %s counts %d rows, indexes %d", w.tabs[tab].name, w.tabs[tab].n, n)
		}
	}
	cited := 0 // body references of live witnesses
	for id, name := range e.idbNames {
		if w.tabs[id].n != e.idbByID[id].Size() {
			t.Fatalf("%s has %d tuples but %d witness rows", name, e.idbByID[id].Size(), w.tabs[id].n)
		}
		for _, tup := range e.idbByID[id].TuplesUnordered() {
			r := w.find(id, keyOf(tup), tup)
			if r == 0 {
				t.Fatalf("%s%v has no witness row", name, tup)
			}
			d := w.derivation(r)
			if d == nil {
				t.Fatalf("%s%v has no recorded witness", name, tup)
			}
			if got := e.p.Rules[d.Rule].Head.Pred; got != name {
				t.Fatalf("witness of %s%v is an application of a rule for %s", name, tup, got)
			}
			head := w.rows[r].stage
			cited += len(d.Body)
			for i, bf := range d.Body {
				tgt := w.refs[w.rows[r].body+uint32(i)].target
				if !live[tgt] {
					t.Fatalf("witness of %s%v cites freed row %d for %s", name, tup, tgt, bf)
				}
				if bid, ok := e.idbID[bf.Pred]; ok {
					if e.idbByID[bid].get(keyOf(bf.Tuple)) == nil {
						t.Fatalf("witness of %s%v cites dropped IDB fact %s", name, tup, bf)
					}
					if bs := w.rows[tgt].stage; bs >= head {
						t.Fatalf("witness of %s%v (stage %d) cites %s at stage %d", name, tup, head, bf, bs)
					}
				} else if rel := inc.db.Relation(bf.Pred); rel == nil || !rel.Has(bf.Tuple) {
					t.Fatalf("witness of %s%v cites dropped EDB fact %s", name, tup, bf)
				}
			}
		}
	}
	listed := map[uint32]bool{}
	for r := range live {
		prev := uint32(0)
		for ref := w.rows[r].uses; ref != 0; prev, ref = ref, w.refs[ref].next {
			rf := w.refs[ref]
			if rf.target != r || rf.prev != prev {
				t.Fatalf("use-list of row %d: reference %d has target %d, prev %d (want %d)", r, ref, rf.target, rf.prev, prev)
			}
			if !live[rf.head] {
				t.Fatalf("use-list of row %d names freed head %d", r, rf.head)
			}
			if base := w.rows[rf.head].body; ref < base || ref >= base+uint32(w.bodyLen(rf.head)) {
				t.Fatalf("use-list of row %d: reference %d is outside head %d's witness", r, ref, rf.head)
			}
			if listed[ref] {
				t.Fatalf("reference %d is on two use-lists", ref)
			}
			listed[ref] = true
		}
	}
	// Every listed reference belongs to a live witness and sits on the list
	// of its own target, so equal counts mean each is on exactly one list.
	if len(listed) != cited {
		t.Fatalf("%d body references of live witnesses, %d on use-lists", cited, len(listed))
	}
}

func mustScratch(t *testing.T, p *Program, db *Database) *Result {
	t.Helper()
	res, err := Eval(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIncrementalInsertMatchesScratch(t *testing.T) {
	p := TransitiveClosureProgram()
	db := NewDatabase(10)
	db.EnsureRelation("E", 2)
	inc, err := NewIncremental(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := inc.Insert(Fact{Pred: "E", Tuple: Tuple{i, i + 1}}); err != nil {
			t.Fatal(err)
		}
		db.AddFact("E", i, i+1)
		if msg, ok := sameIDB(inc, mustScratch(t, p, db)); !ok {
			t.Fatalf("after inserting E(%d,%d): %s", i, i+1, msg)
		}
		checkWitnesses(t, inc)
	}
	if got := inc.Result().Goal(p).Size(); got != 45 {
		t.Fatalf("path-10 transitive closure has %d tuples, want 45", got)
	}
}

func TestIncrementalDeleteMatchesScratch(t *testing.T) {
	p := TransitiveClosureProgram()
	db := NewDatabase(10)
	for i := 0; i < 9; i++ {
		db.AddFact("E", i, i+1)
	}
	db.AddFact("E", 9, 0) // cycle: every deletion forces rederivation work
	inc, err := NewIncremental(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		to := (i + 1) % 10
		if err := inc.Delete(Fact{Pred: "E", Tuple: Tuple{i, to}}); err != nil {
			t.Fatal(err)
		}
		db.Relation("E").Remove(Tuple{i, to})
		if msg, ok := sameIDB(inc, mustScratch(t, p, db)); !ok {
			t.Fatalf("after deleting E(%d,%d): %s", i, to, msg)
		}
		checkWitnesses(t, inc)
	}
	if got := inc.Result().Goal(p).Size(); got != 0 {
		t.Fatalf("closure of the empty graph has %d tuples, want 0", got)
	}
}

// randomFact draws a fact for one of the given EDB predicates over an
// n-element universe.
func randomFact(rng *rand.Rand, preds []string, arity map[string]int, n int) Fact {
	pred := preds[rng.Intn(len(preds))]
	tup := make(Tuple, arity[pred])
	for i := range tup {
		tup[i] = rng.Intn(n)
	}
	return Fact{Pred: pred, Tuple: tup}
}

// TestIncrementalRandomWorkloads drives randomized insert/delete batch
// sequences over several programs (single- and multi-EDB, with and
// without constraints) and checks, after every batch, that the maintained
// view equals a from-scratch evaluation and that every surviving witness
// is intact. 3 programs × 12 seeds = 36 workloads of 14 batches each.
func TestIncrementalRandomWorkloads(t *testing.T) {
	programs := []struct {
		name string
		p    *Program
	}{
		{"tc", TransitiveClosureProgram()},
		{"avoiding", AvoidingPathProgram()},
		{"samegen", SameGenerationProgram()},
	}
	const seeds, batches = 12, 14
	for _, pc := range programs {
		var preds []string
		arity := pc.p.Arities()
		for name := range pc.p.EDBs() {
			preds = append(preds, name)
		}
		sort.Strings(preds)
		for seed := 0; seed < seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*seed + 7)))
				n := 5 + rng.Intn(6)
				db := NewDatabase(n)
				// Random starting instance.
				for i := 0; i < n*len(preds); i++ {
					f := randomFact(rng, preds, arity, n)
					db.AddFact(f.Pred, f.Tuple...)
				}
				inc, err := NewIncremental(pc.p, db, DefaultOptions)
				if err != nil {
					t.Fatal(err)
				}
				mirror := db.Clone()
				for b := 0; b < batches; b++ {
					k := 1 + rng.Intn(4)
					batch := make([]Fact, k)
					for i := range batch {
						batch[i] = randomFact(rng, preds, arity, n)
					}
					del := rng.Intn(2) == 1
					if del {
						// Half the time, target facts that actually exist.
						if r := mirror.Relation(batch[0].Pred); r != nil && r.Size() > 0 && rng.Intn(2) == 0 {
							ts := r.Tuples()
							batch[0].Tuple = ts[rng.Intn(len(ts))]
						}
						err = inc.Delete(batch...)
					} else {
						err = inc.Insert(batch...)
					}
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range batch {
						if del {
							mirror.Relation(f.Pred).Remove(f.Tuple)
						} else {
							mirror.AddFact(f.Pred, f.Tuple...)
						}
					}
					if msg, ok := sameIDB(inc, mustScratch(t, pc.p, mirror)); !ok {
						t.Fatalf("batch %d (delete=%v %v): %s", b, del, batch, msg)
					}
					checkWitnesses(t, inc)
				}
			})
		}
	}
}

func TestIncrementalRejectsBadFacts(t *testing.T) {
	p := TransitiveClosureProgram()
	db := NewDatabase(4)
	db.AddFact("E", 0, 1)
	inc, err := NewIncremental(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		f    Fact
	}{
		{"idb predicate", Fact{Pred: "S", Tuple: Tuple{0, 1}}},
		{"arity mismatch", Fact{Pred: "E", Tuple: Tuple{0, 1, 2}}},
		{"out of universe", Fact{Pred: "E", Tuple: Tuple{0, 9}}},
		{"negative element", Fact{Pred: "E", Tuple: Tuple{-1, 0}}},
	}
	for _, tc := range cases {
		if err := inc.Insert(tc.f); err == nil {
			t.Errorf("Insert(%s): no error for %s", tc.f, tc.name)
		}
		if err := inc.Delete(tc.f); err == nil {
			t.Errorf("Delete(%s): no error for %s", tc.f, tc.name)
		}
	}
	// Rejected batches must leave the view untouched, even when a valid
	// fact precedes the invalid one.
	before := inc.Result().Goal(p).Size()
	if err := inc.Insert(Fact{Pred: "E", Tuple: Tuple{1, 2}}, Fact{Pred: "E", Tuple: Tuple{0, 99}}); err == nil {
		t.Fatal("batch with out-of-universe fact accepted")
	}
	if got := inc.Result().Goal(p).Size(); got != before {
		t.Fatalf("rejected batch mutated the view: %d tuples, want %d", got, before)
	}
	// Facts for predicates the program never mentions are ignored.
	if err := inc.Insert(Fact{Pred: "Unrelated", Tuple: Tuple{0}}); err != nil {
		t.Fatalf("unrelated predicate: %v", err)
	}
	if got := inc.Result().Goal(p).Size(); got != before {
		t.Fatalf("unrelated insert changed the goal: %d tuples, want %d", got, before)
	}
}

func TestIncrementalNoopUpdates(t *testing.T) {
	p := TransitiveClosureProgram()
	db := NewDatabase(5)
	for i := 0; i < 4; i++ {
		db.AddFact("E", i, i+1)
	}
	inc, err := NewIncremental(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	rounds := inc.Result().Rounds
	// Re-inserting an existing fact and deleting an absent one are no-ops
	// that must not re-enter the fixpoint loop.
	if err := inc.Insert(Fact{Pred: "E", Tuple: Tuple{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Delete(Fact{Pred: "E", Tuple: Tuple{3, 0}}); err != nil {
		t.Fatal(err)
	}
	if got := inc.Result().Rounds; got != rounds {
		t.Fatalf("no-op updates ran %d extra rounds", got-rounds)
	}
	if got := inc.Result().Goal(p).Size(); got != 10 {
		t.Fatalf("closure has %d tuples, want 10", got)
	}
}
