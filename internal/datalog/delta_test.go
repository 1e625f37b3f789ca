package datalog

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// viewTuples snapshots the maintained IDB as pred -> set of rendered
// tuples, independent of the live relations.
func viewTuples(inc *Incremental) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for name, rel := range inc.Result().IDB {
		m := map[string]bool{}
		for _, t := range rel.Tuples() {
			m[t.String()] = true
		}
		out[name] = m
	}
	return out
}

// diffViews computes the per-predicate added/removed tuple strings
// between two snapshots.
func diffViews(before, after map[string]map[string]bool) (added, removed map[string][]string) {
	added, removed = map[string][]string{}, map[string][]string{}
	for pred, aft := range after {
		for t := range aft {
			if !before[pred][t] {
				added[pred] = append(added[pred], t)
			}
		}
	}
	for pred, bef := range before {
		for t := range bef {
			if !after[pred][t] {
				removed[pred] = append(removed[pred], t)
			}
		}
	}
	for _, m := range []map[string][]string{added, removed} {
		for pred, ts := range m {
			if len(ts) == 0 {
				delete(m, pred)
			} else {
				sort.Strings(ts)
			}
		}
	}
	return added, removed
}

// deltaStrings renders a Delta in the same shape as diffViews.
func deltaStrings(d Delta) (added, removed map[string][]string) {
	added, removed = map[string][]string{}, map[string][]string{}
	for pred, ts := range d.Added {
		for _, t := range ts {
			added[pred] = append(added[pred], t.String())
		}
		sort.Strings(added[pred])
	}
	for pred, ts := range d.Removed {
		for _, t := range ts {
			removed[pred] = append(removed[pred], t.String())
		}
		sort.Strings(removed[pred])
	}
	return added, removed
}

func sameStringSets(t *testing.T, label string, got, want map[string][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	for pred, ts := range want {
		g := got[pred]
		if len(g) != len(ts) {
			t.Fatalf("%s[%s]: got %v, want %v", label, pred, g, ts)
		}
		for i := range ts {
			if g[i] != ts[i] {
				t.Fatalf("%s[%s]: got %v, want %v", label, pred, g, ts)
			}
		}
	}
}

// TestLastDeltaTransitiveClosure checks the surfaced maintenance deltas
// against view snapshots on the transitive-closure program: inserting an
// edge reports exactly the new paths, deleting it exactly the lost ones,
// and sorted order is canonical.
func TestLastDeltaTransitiveClosure(t *testing.T) {
	p, err := Parse(`
		S(x,y) :- E(x,y).
		S(x,y) :- E(x,z), S(z,y).
		goal S.`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(16)
	db.AddFact("E", 0, 1)
	db.AddFact("E", 1, 2)
	inc, err := NewIncremental(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.LastDelta().Empty() {
		t.Fatalf("fresh view has a non-empty delta: %+v", inc.LastDelta())
	}

	before := viewTuples(inc)
	if err := inc.Insert(Fact{Pred: "E", Tuple: Tuple{2, 3}}); err != nil {
		t.Fatal(err)
	}
	d := inc.LastDelta()
	wantAdd, wantRem := diffViews(before, viewTuples(inc))
	gotAdd, gotRem := deltaStrings(d)
	sameStringSets(t, "insert added", gotAdd, wantAdd)
	sameStringSets(t, "insert removed", gotRem, wantRem)
	if len(d.Added["S"]) != 3 { // (2,3), (1,3), (0,3)
		t.Fatalf("insert of E(2,3) should add 3 paths, got %v", d.Added["S"])
	}
	for i := 1; i < len(d.Added["S"]); i++ {
		if CompareTuples(d.Added["S"][i-1], d.Added["S"][i]) >= 0 {
			t.Fatalf("delta tuples not in canonical order: %v", d.Added["S"])
		}
	}

	before = viewTuples(inc)
	if err := inc.Delete(Fact{Pred: "E", Tuple: Tuple{1, 2}}); err != nil {
		t.Fatal(err)
	}
	d = inc.LastDelta()
	wantAdd, wantRem = diffViews(before, viewTuples(inc))
	gotAdd, gotRem = deltaStrings(d)
	sameStringSets(t, "delete added", gotAdd, wantAdd)
	sameStringSets(t, "delete removed", gotRem, wantRem)
	if len(d.Removed["S"]) == 0 || len(d.Added["S"]) != 0 {
		t.Fatalf("delete should only remove, got %+v", d)
	}

	// A no-op update (re-inserting an existing fact) reports emptiness,
	// not the previous delta.
	if err := inc.Insert(Fact{Pred: "E", Tuple: Tuple{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if !inc.LastDelta().Empty() {
		t.Fatalf("no-op insert left a delta: %+v", inc.LastDelta())
	}
}

// TestLastDeltaRandomized cross-checks LastDelta against brute-force
// view diffs over random update sequences on recursive programs.
func TestLastDeltaRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260810))
	p, err := Parse(`
		S(x,y) :- E(x,y).
		S(x,y) :- E(x,z), S(z,y).
		T(x) :- S(x,x).
		goal S.`)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for w := 0; w < 20; w++ {
		db := NewDatabase(n)
		var edges []Tuple
		for i := 0; i < 8; i++ {
			e := Tuple{rng.Intn(n), rng.Intn(n)}
			db.AddFact("E", e...)
			edges = append(edges, e)
		}
		inc, err := NewIncremental(p, db, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			before := viewTuples(inc)
			var upErr error
			if rng.Intn(2) == 0 || len(edges) == 0 {
				e := Tuple{rng.Intn(n), rng.Intn(n)}
				edges = append(edges, e)
				upErr = inc.Insert(Fact{Pred: "E", Tuple: e})
			} else {
				i := rng.Intn(len(edges))
				e := edges[i]
				edges = append(edges[:i], edges[i+1:]...)
				upErr = inc.Delete(Fact{Pred: "E", Tuple: e})
			}
			if upErr != nil {
				t.Fatal(upErr)
			}
			wantAdd, wantRem := diffViews(before, viewTuples(inc))
			gotAdd, gotRem := deltaStrings(inc.LastDelta())
			label := fmt.Sprintf("workload %d step %d", w, step)
			sameStringSets(t, label+" added", gotAdd, wantAdd)
			sameStringSets(t, label+" removed", gotRem, wantRem)
		}
	}
}

// TestMergeDeltas checks the delete-then-insert composition the service
// uses for one commit: re-derived tuples cancel, everything else nets.
func TestMergeDeltas(t *testing.T) {
	tp := func(xs ...int) Tuple { return Tuple(xs) }
	a := Delta{
		Removed: map[string][]Tuple{"S": {tp(0, 1), tp(0, 2)}},
	}
	b := Delta{
		Added: map[string][]Tuple{"S": {tp(0, 2), tp(0, 3)}, "T": {tp(5)}},
	}
	m := MergeDeltas(a, b)
	gotAdd, gotRem := deltaStrings(m)
	sameStringSets(t, "merged added", gotAdd, map[string][]string{
		"S": {tp(0, 3).String()}, "T": {tp(5).String()},
	})
	sameStringSets(t, "merged removed", gotRem, map[string][]string{
		"S": {tp(0, 1).String()},
	})
	if !MergeDeltas(Delta{}, Delta{}).Empty() {
		t.Fatal("merging empty deltas must stay empty")
	}
}

// PatchSorted against the obvious reference: apply the delta to a set and
// sort. Random sorted views × random exact deltas (added disjoint from the
// view, removed drawn from it), with the input slice required to come back
// untouched and an empty delta required to return the very same slice.
func TestPatchSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(7)
		arity := 1 + rng.Intn(3)
		draw := func() Tuple {
			tup := make(Tuple, arity)
			for i := range tup {
				tup[i] = rng.Intn(n)
			}
			return tup
		}
		set := map[string]Tuple{}
		for i := rng.Intn(40); i > 0; i-- {
			tup := draw()
			set[tup.String()] = tup
		}
		var view []Tuple
		for _, tup := range set {
			view = append(view, tup)
		}
		SortTuples(view)
		before := append([]Tuple(nil), view...)

		var added, removed []Tuple
		for i := rng.Intn(6); i > 0; i-- {
			tup := draw()
			if _, ok := set[tup.String()]; !ok {
				set[tup.String()] = tup
				added = append(added, tup)
			}
		}
		for _, tup := range before {
			if rng.Intn(5) == 0 {
				delete(set, tup.String())
				removed = append(removed, tup)
			}
		}
		SortTuples(added)

		got := PatchSorted(view, added, removed)
		var want []Tuple
		for _, tup := range set {
			want = append(want, tup)
		}
		SortTuples(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: view %v + %v - %v = %v, want %v", trial, before, added, removed, got, want)
		}
		if fmt.Sprint(view) != fmt.Sprint(before) {
			t.Fatalf("trial %d: the input view was written: %v, was %v", trial, view, before)
		}
		if len(added)+len(removed) == 0 && len(view) > 0 && &got[0] != &view[0] {
			t.Fatalf("trial %d: an empty delta copied the view", trial)
		}
	}
	view := []Tuple{{0, 1}, {2, 3}}
	if got := PatchSorted(view, nil, nil); &got[0] != &view[0] {
		t.Fatal("an empty delta copied the view")
	}
}

// The deltas maintenance reports are the exact deltas PatchSorted wants:
// patching the sorted view with each run's LastDelta tracks Tuples()
// through a random insert/delete schedule.
func TestPatchSortedTracksMaintainedView(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := MustParse("S(x,y) :- E(x,y).\nS(x,y) :- E(x,z), S(z,y).\nJ(x,y) :- E(x,z), E(z,y), x != y.\ngoal S.\n")
	const n = 9
	db := NewDatabase(n)
	db.EnsureRelation("E", 2)
	inc, err := NewIncremental(p, db, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string][]Tuple{}
	for pred, rel := range inc.Result().IDB {
		views[pred] = rel.Tuples()
	}
	for step := 0; step < 200; step++ {
		f := Fact{Pred: "E", Tuple: Tuple{rng.Intn(n), rng.Intn(n)}}
		if rng.Intn(3) == 0 {
			err = inc.Delete(f)
		} else {
			err = inc.Insert(f)
		}
		if err != nil {
			t.Fatal(err)
		}
		d := inc.LastDelta()
		for pred, rel := range inc.Result().IDB {
			views[pred] = PatchSorted(views[pred], d.Added[pred], d.Removed[pred])
			if want := rel.Tuples(); fmt.Sprint(views[pred]) != fmt.Sprint(want) {
				t.Fatalf("step %d, %s: patched view %v, relation %v", step, pred, views[pred], want)
			}
		}
	}
}
