package service

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datalog"
)

const hop2Source = `
J(x, y) :- E(x, z), E(z, y), x != y.
goal J.
`

// adhocSources are unbound ad-hoc programs whose joins probe E on each of
// its column masks, so between them they find every index cold.
var adhocSources = []string{
	"A(x, z) :- E(x, y), E(y, z).\ngoal A.\n",
	"B(x, z) :- E(x, y), E(z, y), x != z.\ngoal B.\n",
	"C(x, y) :- E(x, y), E(y, x).\ngoal C.\n",
}

// naiveRef answers "what does this program derive at this version" by the
// naive fixpoint — no semi-naive deltas, no indexes, no planner — on a
// database built from the test's own mirror of the EDB.
type naiveRef struct {
	universe int
	mu       sync.Mutex // held by the writer across commit + record
	edges    map[int64][]datalog.Tuple
	memo     sync.Map // version/source -> *datalog.Relation
}

func (r *naiveRef) at(t *testing.T, version int64, source string) *datalog.Relation {
	key := fmt.Sprintf("%d/%s", version, source)
	if rel, ok := r.memo.Load(key); ok {
		return rel.(*datalog.Relation)
	}
	r.mu.Lock()
	edges, ok := r.edges[version]
	r.mu.Unlock()
	if !ok {
		t.Errorf("answer at version %d, which no commit produced", version)
		return datalog.NewDLRelation(2)
	}
	db := datalog.NewDatabase(r.universe)
	db.EnsureRelation("E", 2)
	for _, e := range edges {
		db.AddFact("E", e...)
	}
	p, err := datalog.Parse(source)
	if err != nil {
		t.Errorf("parse: %v", err)
		return datalog.NewDLRelation(2)
	}
	res, err := datalog.Eval(p, db, datalog.Options{})
	if err != nil {
		t.Errorf("naive eval: %v", err)
		return datalog.NewDLRelation(2)
	}
	r.memo.Store(key, res.Goal(p))
	return res.Goal(p)
}

// requireAnswer checks got is exactly the reference tuples matching bind.
func requireAnswer(t *testing.T, what string, got []datalog.Tuple, ref *datalog.Relation, bind []*int) {
	want := 0
	ref.Each(func(tup datalog.Tuple) bool {
		for i, b := range bind {
			if b != nil && tup[i] != *b {
				return true
			}
		}
		want++
		return true
	})
	seen := map[string]bool{}
	for _, tup := range got {
		if !ref.Has(tup) || seen[tup.String()] {
			t.Errorf("%s: answer %v is wrong or repeated", what, tup)
			return
		}
		for i, b := range bind {
			if b != nil && tup[i] != *b {
				t.Errorf("%s: answer %v does not match the binding", what, tup)
				return
			}
		}
		seen[tup.String()] = true
	}
	if len(got) != want {
		t.Errorf("%s: %d answers, the naive fixpoint has %d", what, len(got), want)
	}
}

// requirePage checks one page of a cursor walk: exactly the reference's
// next limit tuples after the cursor, in the canonical order, with a next
// cursor iff the reference continues past them.
func requirePage(t *testing.T, what string, page []datalog.Tuple, next string, ref *datalog.Relation, cursor string, limit int) {
	var after datalog.Tuple
	if cursor != "" {
		var err error
		if after, err = parseCursor(cursor); err != nil {
			t.Errorf("%s: %v", what, err)
			return
		}
	}
	want, wantNext := pageTuples(ref.Tuples(), after, limit)
	if fmt.Sprint(page) != fmt.Sprint(want) || next != wantNext {
		t.Errorf("%s after %q: page %v next %q, the naive fixpoint has %v next %q", what, cursor, page, next, want, wantNext)
	}
}

func indexBuilds(t *testing.T, s *Service) int64 {
	m, ok := s.Metrics().Snapshot()["datalog_index_builds_total"].(map[string]any)
	if !ok {
		t.Fatal("datalog_index_builds_total is not on the metrics registry")
	}
	return m["value"].(int64)
}

// TestConcurrentReadsDuringChurn reads snapshots in place from several
// goroutines — JSON goals, streamed goals and unbound ad-hoc programs, at
// the latest version and at pinned ones, the first of them finding every
// join index cold — and walks the published views by cursor at the latest
// version, while a writer commits 200 churn batches. Every answer and every
// page must be the naive fixpoint's at the version its response reports; the snapshot held from
// before the first churn commit must read at the end exactly as it did;
// and once the indexes exist, serving goals builds no more of them.
func TestConcurrentReadsDuringChurn(t *testing.T) {
	const universe, commits, readers = 40, 200, 4
	s, err := New(Config{Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	present := map[[2]int]bool{}
	var initial []datalog.Fact
	for len(present) < 50 {
		e := [2]int{rng.Intn(universe), rng.Intn(universe)}
		if !present[e] {
			present[e] = true
			initial = append(initial, edge(e[0], e[1]))
		}
	}
	info, err := s.Commit(initial, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"tc": tcSource, "hop2": hop2Source} {
		if _, err := s.Register(name, src); err != nil {
			t.Fatal(err)
		}
	}
	mirror := func() []datalog.Tuple {
		out := make([]datalog.Tuple, 0, len(present))
		for e := range present {
			out = append(out, datalog.Tuple{e[0], e[1]})
		}
		return out
	}
	ref := &naiveRef{universe: universe, edges: map[int64][]datalog.Tuple{info.Version: mirror()}}
	held := s.Store().Latest()
	heldE := held.DB.Relation("E").Tuples()

	var latest, reads atomic.Int64
	latest.Store(info.Version)
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < commits; i++ {
			var ins, del []datalog.Fact
			for e := range present {
				if len(del) == 2 {
					break
				}
				del = append(del, edge(e[0], e[1]))
			}
			for len(ins) < 2 {
				e := [2]int{rng.Intn(universe), rng.Intn(universe)}
				if !present[e] {
					present[e] = true
					ins = append(ins, edge(e[0], e[1]))
				}
			}
			for _, f := range del {
				delete(present, [2]int{f.Tuple[0], f.Tuple[1]})
			}
			ref.mu.Lock()
			info, err := s.Commit(ins, del)
			if err == nil {
				ref.edges[info.Version] = mirror()
			}
			ref.mu.Unlock()
			if err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
			latest.Store(info.Version)
		}
	}()

	ctx := context.Background()
	// walkPages follows next-cursors through a registered view at the latest
	// version, JSON and streamed pages alternating. Commits land between
	// pages, so each page is held to the version its own response reports.
	walkPages := func(rng *rand.Rand) {
		name, source := "tc", tcSource
		if rng.Intn(2) == 0 {
			name, source = "hop2", hop2Source
		}
		limit, cursor := 1+rng.Intn(40), ""
		for page := 0; page < 6; page++ {
			req := QueryRequest{Program: name, Version: -1, Limit: limit, Cursor: cursor}
			var got []datalog.Tuple
			var next, origin string
			var version int64
			if page%2 == 0 {
				res, err := s.QueryContext(ctx, req)
				if err != nil {
					t.Errorf("%s page: %v", name, err)
					return
				}
				got, next, origin, version = res.Tuples, res.NextCursor, res.Origin, res.Version
			} else {
				qs, err := s.QueryStream(ctx, req)
				if err != nil {
					t.Errorf("%s streamed page: %v", name, err)
					return
				}
				for tup, ok := qs.Next(); ok; tup, ok = qs.Next() {
					got = append(got, tup)
				}
				next, origin, version = qs.NextCursor(), qs.Origin, qs.Version
				qs.Close()
			}
			if origin != "materialized" {
				t.Errorf("%s page at the latest version came from %q", name, origin)
			}
			reads.Add(1)
			requirePage(t, fmt.Sprintf("%s page at version %d", name, version), got, next, ref.at(t, version, source), cursor, limit)
			if next == "" {
				return
			}
			cursor = next
		}
	}
	// read issues one read of the given kind and checks it; pinned reads of
	// a version that has left the history window are skipped.
	read := func(rng *rand.Rand, kind int, version int64) {
		x := rng.Intn(universe)
		bind := []*int{&x, nil}
		if rng.Intn(2) == 0 {
			bind = []*int{nil, &x}
		}
		if kind == 3 {
			walkPages(rng)
			return
		}
		var got []datalog.Tuple
		var source, what string
		var err error
		switch kind {
		case 0: // JSON goal through the magic rewrite
			var res QueryResult
			res, err = s.QueryContext(ctx, QueryRequest{Program: "tc", Version: version, Bind: bind})
			got, version, source, what = res.Tuples, res.Version, tcSource, "tc goal"
		case 1: // streamed goal on the iterator tree
			var qs *QueryStream
			if qs, err = s.QueryStream(ctx, QueryRequest{Program: "hop2", Version: version, Bind: bind}); err == nil {
				for tup, ok := qs.Next(); ok; tup, ok = qs.Next() {
					got = append(got, tup)
				}
				err = qs.Err()
				qs.Close()
				version = qs.Version
			}
			source, what = hop2Source, "hop2 stream"
		default: // unbound ad-hoc program, evaluated from scratch
			source, bind = adhocSources[rng.Intn(len(adhocSources))], nil
			var res QueryResult
			res, err = s.QueryContext(ctx, QueryRequest{Source: source, Version: version})
			got, version, what = res.Tuples, res.Version, "ad-hoc"
		}
		if err != nil {
			if !strings.Contains(err.Error(), "not retained") {
				t.Errorf("%s at %d: %v", what, version, err)
			}
			return
		}
		reads.Add(1)
		requireAnswer(t, fmt.Sprintf("%s at version %d", what, version), got, ref.at(t, version, source), bind)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30 || !done.Load(); i++ {
				version := int64(-1)
				if rng.Intn(2) == 0 {
					version = max(info.Version, latest.Load()-int64(rng.Intn(12)))
				}
				read(rng, rng.Intn(4), version)
			}
		}(int64(r + 2))
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The held snapshot left the history window long ago; whoever still
	// holds it reads what it always held.
	now := held.DB.Relation("E").Tuples()
	if len(now) != len(heldE) {
		t.Fatalf("held snapshot has %d edges, had %d", len(now), len(heldE))
	}
	for i := range now {
		if datalog.CompareTuples(now[i], heldE[i]) != 0 {
			t.Fatalf("held snapshot edge %d is %v, was %v", i, now[i], heldE[i])
		}
	}
	p, _ := datalog.Parse(tcSource)
	res, err := datalog.Eval(p, held.DB, datalog.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	requireAnswer(t, "held snapshot", res.Goal(p).Tuples(), ref.at(t, held.Version, tcSource), nil)

	// Every index the goals probe exists by now and each commit handed it
	// on: far fewer builds than versions, and none from here on.
	rng = rand.New(rand.NewSource(9))
	for kind := 0; kind < 2; kind++ {
		for i := 0; i < 4; i++ {
			read(rng, kind, -1)
		}
	}
	warm := indexBuilds(t, s)
	t.Logf("%d reads checked against the naive fixpoint across %d versions; %d index builds", reads.Load(), commits+1, warm)
	if warm == 0 || warm > 32 {
		t.Fatalf("%d index builds over %d versions: want a handful, once per relation and mask", warm, commits)
	}
	for i := 0; i < 64; i++ {
		read(rng, i%2, -1)
	}
	if after := indexBuilds(t, s); after != warm {
		t.Fatalf("serving goals on warm indexes built %d more", after-warm)
	}
}
