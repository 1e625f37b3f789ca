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

// View.Patch against the obvious reference: apply the delta to a set and
// sort. Random sorted views × random exact deltas (added disjoint from the
// view, removed drawn from it), of arity 0 to 3 and up to a few hundred rows
// — several chunks — with the input view required to come back untouched and
// an empty delta required to return the very same view. Fixed inputs add
// what random ones rarely hit: deltas before the first row and after the
// last, into and out of an empty view, of nullary rows, and deltas that
// empty a chunk, thin one under half the chunk size, and overfill one.
func TestViewPatchProperty(t *testing.T) {
	check := func(name string, rows, added, removed []Tuple, want []Tuple) {
		t.Helper()
		arity := 0
		for _, tup := range append(append(append([]Tuple(nil), rows...), added...), removed...) {
			arity = len(tup)
		}
		view := NewView(arity, rows)
		before := view.Tuples()
		got := view.Patch(added, removed)
		if fmt.Sprint(got.Tuples()) != fmt.Sprint(want) || got.Len() != len(want) {
			t.Fatalf("%s: view %v + %v - %v = %v (len %d), want %v", name, before, added, removed, got.Tuples(), got.Len(), want)
		}
		if fmt.Sprint(view.Tuples()) != fmt.Sprint(before) {
			t.Fatalf("%s: the input view was written: %v, was %v", name, view.Tuples(), before)
		}
		if err := chunkSizes(got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(added)+len(removed) == 0 && got != view {
			t.Fatalf("%s: an empty delta copied the view", name)
		}
	}
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(7)
		arity := rng.Intn(4)
		draws := rng.Intn(40)
		if trial%2 == 1 {
			n, draws = 4+rng.Intn(24), rng.Intn(600)
		}
		draw := func() Tuple {
			tup := make(Tuple, arity)
			for i := range tup {
				tup[i] = rng.Intn(n)
			}
			return tup
		}
		set := map[string]Tuple{}
		for i := draws; i > 0; i-- {
			tup := draw()
			set[tup.String()] = tup
		}
		var view []Tuple
		for _, tup := range set {
			view = append(view, tup)
		}
		SortTuples(view)

		var added, removed []Tuple
		for i := rng.Intn(6 + draws/8); i > 0; i-- {
			tup := draw()
			if _, ok := set[tup.String()]; !ok {
				set[tup.String()] = tup
				added = append(added, tup)
			}
		}
		for _, tup := range view {
			if rng.Intn(5) == 0 {
				delete(set, tup.String())
				removed = append(removed, tup)
			}
		}
		SortTuples(added)

		var want []Tuple
		for _, tup := range set {
			want = append(want, tup)
		}
		SortTuples(want)
		check(fmt.Sprintf("trial %d", trial), view, added, removed, want)
	}

	// rows(lo, hi) is (2i, 0) for lo <= i < hi: even first components, so
	// every odd one is free for a delta to land between two rows.
	rows := func(lo, hi int) []Tuple {
		var out []Tuple
		for i := lo; i < hi; i++ {
			out = append(out, Tuple{2 * i, 0})
		}
		return out
	}
	cat := func(parts ...[]Tuple) []Tuple {
		var out []Tuple
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	const c = viewChunkRows
	wide := make([]Tuple, 3*c) // 3c rows land between rows 2c-1 and 2c
	for i := range wide {
		wide[i] = Tuple{4*c - 1, i}
	}
	for _, tc := range []struct {
		name                 string
		rows, added, removed []Tuple
		want                 []Tuple
	}{
		{"before the first row", rows(1, 4*c), []Tuple{{0, 0}, {0, 5}}, nil, cat([]Tuple{{0, 0}, {0, 5}}, rows(1, 4*c))},
		{"after the last row", rows(0, 4*c), []Tuple{{8 * c, 0}}, rows(0, 1), rows(1, 4*c+1)},
		{"empties a chunk", rows(0, 4*c), nil, rows(c, 2*c), cat(rows(0, c), rows(2*c, 4*c))},
		{"thins a chunk", rows(0, 4*c), nil, rows(c+8, 2*c), cat(rows(0, c+8), rows(2*c, 4*c))},
		{"overfills a chunk", rows(0, 4*c), wide, nil, cat(rows(0, 2*c), wide, rows(2*c, 4*c))},
		{"into an empty view", nil, rows(0, 3*c), nil, rows(0, 3*c)},
		{"to an empty view", rows(0, 3*c), nil, rows(0, 3*c), nil},
		{"nullary, added", nil, []Tuple{{}}, nil, []Tuple{{}}},
		{"nullary, removed", []Tuple{{}}, nil, []Tuple{{}}, nil},
		{"nullary, unchanged", []Tuple{{}}, nil, nil, []Tuple{{}}},
	} {
		check(tc.name, tc.rows, tc.added, tc.removed, tc.want)
	}
}

// chunkSizes checks the chunk sizes Patch keeps: no chunk is empty or
// holds twice the chunk size, and none but the last has dwindled under half
// of it — a chunk a delta thins that far takes in the chunks after it.
func chunkSizes(v *View) error {
	for ci, c := range v.chunks {
		if c.n == 0 || c.n >= 2*viewChunkRows || (c.n < viewChunkRows/2 && ci < len(v.chunks)-1) {
			return fmt.Errorf("chunk %d of %d holds %d rows", ci, len(v.chunks), c.n)
		}
	}
	return nil
}

// A patch shares every chunk its delta does not land in with the version
// before, by pointer: two deltas in two chunks of twenty copy those two.
func TestViewPatchSharesUntouchedChunks(t *testing.T) {
	var rows []Tuple
	for i := 0; i < 20*viewChunkRows; i++ {
		rows = append(rows, Tuple{i, 0})
	}
	v := NewView(2, rows)
	if len(v.chunks) != 20 {
		t.Fatalf("%d rows cut into %d chunks, want 20", len(rows), len(v.chunks))
	}
	next := v.Patch([]Tuple{{viewChunkRows + 6, 5}}, []Tuple{{15*viewChunkRows + 3, 0}})
	if len(next.chunks) != 20 {
		t.Fatalf("the patched view has %d chunks, want 20", len(next.chunks))
	}
	for ci := range v.chunks {
		shared := &next.chunks[ci].rows[0] == &v.chunks[ci].rows[0]
		if touched := ci == 1 || ci == 15; shared == touched {
			t.Fatalf("chunk %d: shared %v, touched by the delta %v", ci, shared, touched)
		}
	}
}

// The deltas maintenance reports are the exact deltas View.Patch wants:
// patching the view with each run's LastDelta tracks Tuples() through a
// random insert/delete schedule — on a universe of 9, and on one of 40 whose
// closure spans many chunks.
func TestViewPatchTracksMaintainedView(t *testing.T) {
	for _, n := range []int{9, 40} {
		rng := rand.New(rand.NewSource(7))
		p := MustParse("S(x,y) :- E(x,y).\nS(x,y) :- E(x,z), S(z,y).\nJ(x,y) :- E(x,z), E(z,y), x != y.\nT(x,y,z) :- E(x,y), E(y,z).\ngoal S.\n")
		db := NewDatabase(n)
		db.EnsureRelation("E", 2)
		inc, err := NewIncremental(p, db, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		views := map[string]*View{}
		for pred, rel := range inc.Result().IDB {
			views[pred] = NewView(rel.Arity, rel.Tuples())
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
				views[pred] = views[pred].Patch(d.Added[pred], d.Removed[pred])
				if want := rel.Tuples(); fmt.Sprint(views[pred].Tuples()) != fmt.Sprint(want) {
					t.Fatalf("n %d, step %d, %s: patched view %v, relation %v", n, step, pred, views[pred].Tuples(), want)
				}
				if err := chunkSizes(views[pred]); err != nil {
					t.Fatalf("n %d, step %d, %s: %v", n, step, pred, err)
				}
			}
		}
	}
}
