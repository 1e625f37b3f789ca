package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/datalog"
	"repro/internal/plan"
)

func mustParse(t *testing.T, src string) *datalog.Program {
	t.Helper()
	p, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// evalSorted is the materialized reference: full semi-naive evaluation,
// canonical order.
func evalSorted(t *testing.T, p *datalog.Program, db *datalog.Database, pred string) []datalog.Tuple {
	t.Helper()
	res, err := datalog.EvalContext(context.Background(), p, db.Clone(), datalog.DefaultOptions)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	rel := res.IDB[pred]
	if rel == nil {
		return nil
	}
	return rel.Tuples()
}

// collect answers pred through Open and Collect: every answer, sorted.
func collect(t *testing.T, p *datalog.Program, db *datalog.Database, pred string, opt Options) []datalog.Tuple {
	t.Helper()
	s, err := Open(context.Background(), p, db, pred, opt)
	if err != nil {
		t.Fatalf("Open %s: %v", pred, err)
	}
	out, err := Collect(s)
	if err != nil {
		t.Fatalf("Collect %s: %v", pred, err)
	}
	return out
}

func sameTuples(a, b []datalog.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if datalog.CompareTuples(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// chain builds a layered database for the classic two-hop composition.
func chainDB(n int) *datalog.Database {
	db := datalog.NewDatabase(n)
	for i := 0; i < n-1; i++ {
		db.AddFact("E", i, i+1)
		if i%2 == 0 {
			db.AddFact("F", i, (i+3)%n)
		}
	}
	return db
}

func TestStreamMatchesEvalOnComposition(t *testing.T) {
	p := mustParse(t, `
		A(x,z) :- E(x,y), F(y,z).
		Q(x,w) :- A(x,z), E(z,w).
		goal Q.`)
	db := chainDB(64)
	want := evalSorted(t, p, db, "Q")
	got := collect(t, p, db.Clone(), "Q", Options{Eval: datalog.DefaultOptions})
	if !sameTuples(got, want) {
		t.Fatalf("stream answers differ: got %d want %d tuples", len(got), len(want))
	}
}

// TestRecursiveFixpoint streams a recursive slice: the recursive
// component is one datalog.EvalContext run, so the answers, the round count
// and the derived sizes are the evaluator's, and every step of its rules
// reports via "fixpoint". A context cancelled before the first pull ends
// the stream with the context's error.
func TestRecursiveFixpoint(t *testing.T) {
	p := mustParse(t, `
		T(x,y) :- E(x,y).
		T(x,z) :- T(x,y), E(y,z).
		H(x,z) :- T(x,y), F(y,z).
		goal H.`)
	db := chainDB(16)
	ref, err := datalog.EvalContext(context.Background(), p, db.Clone(), datalog.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"T", "H"} {
		s, err := Open(context.Background(), p, db, pred, Options{Eval: datalog.DefaultOptions})
		if err != nil {
			t.Fatalf("Open %s: %v", pred, err)
		}
		for ri, rd := range s.Decisions().Rules {
			for _, sd := range rd.Steps {
				if fix := p.Rules[ri].Head.Pred == "T"; fix != (sd.Via == "fixpoint") || sd.Exec != ExecMaterialize {
					t.Fatalf("%s: rule %d step %+v", pred, ri, sd)
				}
			}
		}
		got, err := Collect(s)
		if err != nil {
			t.Fatalf("Collect %s: %v", pred, err)
		}
		if !sameTuples(got, ref.IDB[pred].Tuples()) {
			t.Fatalf("%s: streamed %v, want %v", pred, got, ref.IDB[pred].Tuples())
		}
		// The fixpoint is the evaluator's: its rounds, T's rows.
		if c := s.Counters(); c.Rounds != int64(ref.Rounds) || s.Rows("T") != ref.IDB["T"].Size() {
			t.Fatalf("%s: rounds %d rows(T) %d, want %d and %d", pred, c.Rounds, s.Rows("T"), ref.Rounds, ref.IDB["T"].Size())
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	s, err := Open(ctx, p, db, "H", Options{Eval: datalog.DefaultOptions})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := Collect(s); !errors.Is(err, context.Canceled) || !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("cancelled before the drain: Collect err %v, Err %v; want context.Canceled", err, s.Err())
	}
}

// TestSpoolProbeDuplicates joins a single-use intermediate at a later
// position, so it is spooled and probed, with duplicate join keys on both
// sides: every cross pair must be emitted exactly once.
func TestSpoolProbeDuplicates(t *testing.T) {
	// Left: rows from scanning L(x,k,0). Right: R(k,y) built from rule
	// R(k,y) :- RE(k,y). Join on k. L has 3 rows with k=7 and 2 with k=8;
	// RE has 2 tuples with k=7 and 3 with k=8 -> 3*2 + 2*3 = 12 joined rows
	// before head projection; heads (x,y) are all distinct, so 12 answers.
	// L's constant column binds more of it than R's none, so L leads.
	p := mustParse(t, `
		R(k,y) :- RE(k,y).
		Q(x,y) :- L(x,k,0), R(k,y).
		goal Q.`)
	db := datalog.NewDatabase(32)
	lefts := map[int][]int{7: {1, 2, 3}, 8: {4, 5}}
	rights := map[int][]int{7: {10, 11}, 8: {12, 13, 14}}
	want := 0
	for k, xs := range lefts {
		for range xs {
			want += len(rights[k])
		}
	}
	for k, xs := range lefts {
		for _, x := range xs {
			db.AddFact("L", x, k, 0)
		}
	}
	for k, ys := range rights {
		for _, y := range ys {
			db.AddFact("RE", k, y)
		}
	}
	s, err := Open(context.Background(), p, db, "Q", Options{Eval: datalog.DefaultOptions})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// The single-use later-position R is spooled and probed on k.
	found := ""
	for _, rd := range s.Decisions().Rules {
		for _, sd := range rd.Steps {
			if sd.Pred == "R" {
				found = sd.Exec + "/" + sd.Via
			}
		}
	}
	if found != "materialize/probe" {
		t.Fatalf("R decision = %q, want materialize/probe", found)
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(got) != want {
		t.Fatalf("duplicates: got %d answers, want %d", len(got), want)
	}
	if wantT := evalSorted(t, p, db, "Q"); !sameTuples(got, wantT) {
		t.Fatalf("answers differ from materialized")
	}
}

// TestSpoolProbeSelfChecks joins a spooled intermediate through an atom
// with a repeated variable: R(k,k) keeps only the self-pairs.
func TestSpoolProbeSelfChecks(t *testing.T) {
	p := mustParse(t, `
		R(a,b) :- RE(a,b).
		Q(x,k) :- L(x,k,0), R(k,k).
		goal Q.`)
	db := datalog.NewDatabase(16)
	db.AddFact("L", 1, 3, 0)
	db.AddFact("L", 2, 4, 0)
	db.AddFact("RE", 3, 3) // self-pair: joins
	db.AddFact("RE", 4, 5) // not a self-pair: filtered
	s, err := Open(context.Background(), p, db.Clone(), "Q", Options{Eval: datalog.DefaultOptions})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if sd := s.Decisions().Rules[1].Steps[1]; sd.Exec+"/"+sd.Via != "materialize/probe" {
		t.Fatalf("R(k,k) decision = %s/%s, want materialize/probe", sd.Exec, sd.Via)
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	want := evalSorted(t, p, db, "Q")
	if len(want) != 1 || !sameTuples(got, want) {
		t.Fatalf("got %v want %v (one self-pair)", got, want)
	}
}

// TestFullyBoundAtomBuildsNoIndex streams a join whose second atom is
// bound on every column: as in the evaluator it is a membership test on
// the relation's tuple set, so no full-width index is left on the
// database's relation for every later snapshot to inherit.
func TestFullyBoundAtomBuildsNoIndex(t *testing.T) {
	p := mustParse(t, "Q(x,y) :- E(x,y), E(y,x).\ngoal Q.")
	fresh := func() (*datalog.Database, *atomic.Int64) {
		db := chainDB(16)
		db.AddFact("E", 1, 0)
		db.AddFact("E", 5, 4)
		builds := new(atomic.Int64)
		db.CountIndexBuilds(builds)
		return db, builds
	}
	db, builds := fresh()
	got := collect(t, p, db, "Q", Options{Eval: datalog.DefaultOptions})
	if want := evalSorted(t, p, db, "Q"); len(want) != 4 || !sameTuples(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("streaming built %d indexes, want 0", n)
	}
	db, builds = fresh()
	if _, err := datalog.Eval(p, db, datalog.DefaultOptions); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("Eval built %d indexes, want 0", n)
	}
}

// TestSpoolReiteration forces a multi-use intermediate to materialize and
// re-iterates it from two consumers, checking the producer ran once (the
// spool is shared, not rebuilt).
func TestSpoolReiteration(t *testing.T) {
	p := mustParse(t, `
		A(x,y) :- E(x,y).
		Q(x,z) :- A(x,y), A(y,z).
		goal Q.`)
	db := chainDB(32)
	s, err := Open(context.Background(), p, db, "Q", Options{Eval: datalog.DefaultOptions})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, rd := range s.Decisions().Rules {
		for _, sd := range rd.Steps {
			if sd.Pred == "A" && sd.Exec != ExecMaterialize {
				t.Fatalf("multi-use A should materialize, got %+v", sd)
			}
		}
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if want := evalSorted(t, p, db, "Q"); !sameTuples(got, want) {
		t.Fatalf("spooled answers differ")
	}
}

// TestRelSlotReiteration unit-tests the buffered slot directly: the fill
// function must run once even under repeated mask-0 scans and index
// probes.
func TestRelSlotReiteration(t *testing.T) {
	fills := 0
	tr := &tracker{}
	slot := &relSlot{t: tr}
	slot.fill = func() *datalog.Relation {
		fills++
		rel := datalog.NewDLRelation(2)
		for i := 0; i < 10; i++ {
			rel.Add(datalog.Tuple{i, i + 1})
		}
		return rel
	}
	for pass := 0; pass < 2; pass++ {
		var c candidates
		c.probe(slot.get(), nil, 0, false)
		n := 0
		for _, ok := c.next(); ok; _, ok = c.next() {
			n++
		}
		if n != 10 {
			t.Fatalf("mask-0 scan %d: %d tuples", pass, n)
		}
	}
	if got := slot.get().Matches(datalog.Tuple{3, 0}, 1); len(got) != 1 {
		t.Fatalf("probe after spool: %v", got)
	}
	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
}

// TestLimitStopsEarly checks that a small limit terminates evaluation
// before the full join is enumerated (the pull counter stays far below
// the full-run count).
func TestLimitStopsEarly(t *testing.T) {
	p := mustParse(t, `
		A(x,z) :- E(x,y), E(y,z).
		Q(x,w) :- A(x,z), E(z,w).
		goal Q.`)
	n := 400
	db := datalog.NewDatabase(n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4*n; i++ {
		db.AddFact("E", rng.Intn(n), rng.Intn(n))
	}
	full, err := Open(context.Background(), p, db.Clone(), "Q", Options{Eval: datalog.DefaultOptions})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	all, err := Collect(full)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	fullPulls := full.Counters().Pulls
	if len(all) < 100 {
		t.Skipf("workload too small: %d answers", len(all))
	}
	lim, err := Open(context.Background(), p, db.Clone(), "Q", Options{Eval: datalog.DefaultOptions, Limit: 10})
	if err != nil {
		t.Fatalf("Open limited: %v", err)
	}
	got, err := Collect(lim)
	if err != nil {
		t.Fatalf("collect limited: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("limit: got %d answers", len(got))
	}
	if limPulls := lim.Counters().Pulls; limPulls*4 > fullPulls {
		t.Fatalf("limit did not stop early: %d pulls vs %d full", limPulls, fullPulls)
	}
	// Limited answers must be a subset of the full set.
	set := map[string]bool{}
	for _, tu := range all {
		set[tu.String()] = true
	}
	for _, tu := range got {
		if !set[tu.String()] {
			t.Fatalf("limited answer %v not in full set", tu)
		}
	}
}

func TestCancellationStopsStream(t *testing.T) {
	p := mustParse(t, `
		A(x,z) :- E(x,y), E(y,z).
		Q(x,w) :- A(x,z), E(z,w).
		goal Q.`)
	n := 300
	db := datalog.NewDatabase(n)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6*n; i++ {
		db.AddFact("E", rng.Intn(n), rng.Intn(n))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, err := Open(ctx, p, db, "Q", Options{Eval: datalog.DefaultOptions})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Pull a few answers, then cancel: the stream must stop with the
	// context error instead of draining the join.
	for i := 0; i < 3; i++ {
		if _, ok := s.Next(); !ok {
			t.Skipf("stream exhausted before cancellation")
		}
	}
	cancel()
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", s.Err())
	}
}

func TestDistinctAcrossRules(t *testing.T) {
	// Both rules derive overlapping tuples; the union must dedup.
	p := mustParse(t, `
		Q(x,y) :- E(x,y).
		Q(x,y) :- F(x,y).
		goal Q.`)
	db := datalog.NewDatabase(8)
	db.AddFact("E", 1, 2)
	db.AddFact("E", 2, 3)
	db.AddFact("F", 1, 2) // duplicate of an E-derived answer
	db.AddFact("F", 4, 5)
	got := collect(t, p, db.Clone(), "Q", Options{Eval: datalog.DefaultOptions})
	if want := evalSorted(t, p, db, "Q"); !sameTuples(got, want) {
		t.Fatalf("distinct union: got %v want %v", got, want)
	}
}

func TestFreeVariablesAndConstraints(t *testing.T) {
	// Example 2.1's shape: w ranges over the universe minus {x, y}.
	p := mustParse(t, `
		T(x,y,w) :- E(x,y), w != x, w != y.
		goal T.`)
	db := datalog.NewDatabase(6)
	db.AddFact("E", 0, 1)
	db.AddFact("E", 2, 3)
	got := collect(t, p, db.Clone(), "T", Options{Eval: datalog.DefaultOptions})
	if want := evalSorted(t, p, db, "T"); !sameTuples(got, want) {
		t.Fatalf("free vars: got %d want %d tuples", len(got), len(want))
	}
}

func TestGoalFilter(t *testing.T) {
	p := mustParse(t, `
		A(x,z) :- E(x,y), F(y,z).
		goal A.`)
	db := chainDB(32)
	g := datalog.NewGoal("A", 2, map[int]int{0: 2})
	got := collect(t, p, db.Clone(), "A", Options{Eval: datalog.DefaultOptions, Filter: &g})
	var want []datalog.Tuple
	for _, tu := range evalSorted(t, p, db, "A") {
		if g.Matches(tu) {
			want = append(want, tu)
		}
	}
	if !sameTuples(got, want) {
		t.Fatalf("filtered: got %v want %v", got, want)
	}
}

func TestConstantsInBodyAndHead(t *testing.T) {
	p := mustParse(t, `
		A(x) :- E(0,x).
		Q(x,5) :- A(x), E(x,y).
		goal Q.`)
	db := chainDB(16)
	db.AddFact("E", 0, 7)
	got := collect(t, p, db.Clone(), "Q", Options{Eval: datalog.DefaultOptions})
	if want := evalSorted(t, p, db, "Q"); !sameTuples(got, want) {
		t.Fatalf("constants: got %v want %v", got, want)
	}
}

func TestCountersTrackBuffering(t *testing.T) {
	p := mustParse(t, `
		A(x,y) :- E(x,y).
		Q(x,z) :- A(x,y), A(y,z).
		goal Q.`)
	db := chainDB(64)
	s, err := Open(context.Background(), p, db, "Q", Options{Eval: datalog.DefaultOptions})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := Collect(s); err != nil {
		t.Fatalf("collect: %v", err)
	}
	c := s.Counters()
	if c.Pulls == 0 || c.PeakBuffered == 0 {
		t.Fatalf("counters not tracked: %+v", c)
	}
}

func TestExplainDecisions(t *testing.T) {
	// A is consumed once, as its consumer's only atom: it is inlined.
	p := mustParse(t, `
		A(x,z) :- E(x,y), F(y,z).
		Q(x,z) :- A(x,z), x != z.
		goal Q.`)
	db := chainDB(64)
	dec, err := Explain(p, db, "Q")
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	sawStream := false
	for _, rd := range dec.Rules {
		for _, sd := range rd.Steps {
			if sd.Exec == ExecStream && sd.Pred == "A" && sd.Via == "inline" {
				sawStream = true
			}
			if sd.Exec != ExecStream && sd.Exec != ExecMaterialize {
				t.Fatalf("bad exec %q", sd.Exec)
			}
		}
	}
	if !sawStream {
		t.Fatalf("A not inlined: %+v", dec.Rules)
	}
	// Recursive: every step of the fixpoint's rules is materialized by it.
	rec := mustParse(t, "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\ngoal T.")
	dec, err = Explain(rec, db, "T")
	if err != nil {
		t.Fatalf("Explain recursive: %v", err)
	}
	for _, rd := range dec.Rules {
		for _, sd := range rd.Steps {
			if sd.Exec != ExecMaterialize || sd.Via != "fixpoint" {
				t.Fatalf("recursive decisions: %+v", dec)
			}
		}
	}
}

func TestZeroAtomRule(t *testing.T) {
	// Seeded magic programs start with a constant-head fact rule.
	p := mustParse(t, `
		S(3) :- 0 = 0.
		Q(x,y) :- S(x), E(x,y).
		goal Q.`)
	db := chainDB(16)
	got := collect(t, p, db.Clone(), "Q", Options{Eval: datalog.DefaultOptions})
	if want := evalSorted(t, p, db, "Q"); !sameTuples(got, want) {
		t.Fatalf("fact rule: got %v want %v", got, want)
	}
}

func TestPlannedStreamEquivalence(t *testing.T) {
	p := mustParse(t, `
		A(x,z) :- E(x,y), F(y,z).
		Q(w,x) :- G(z,w), A(x,z).
		goal Q.`)
	db := chainDB(48)
	for i := 0; i < 24; i++ {
		db.AddFact("G", i, (i*5)%48)
	}
	pl := plan.New(plan.Config{})
	pp, _ := pl.PlanProgram(p, pl.CatalogFor(db))
	want := evalSorted(t, p, db, "Q")
	got := collect(t, p, db.Clone(), "Q", Options{Eval: datalog.DefaultOptions, Plan: pp})
	if !sameTuples(got, want) {
		t.Fatalf("planned stream differs: got %d want %d", len(got), len(want))
	}
}

func TestOpenErrors(t *testing.T) {
	p := mustParse(t, "Q(x,y) :- E(x,y).\ngoal Q.")
	db := chainDB(8)
	if _, err := Open(context.Background(), p, db, "Nope", Options{Eval: datalog.DefaultOptions}); err == nil {
		t.Fatalf("expected error for unknown predicate")
	}
	bad := datalog.Options{MaxRounds: -1}
	if _, err := Open(context.Background(), p, db, "Q", Options{Eval: bad}); err == nil {
		t.Fatalf("expected options validation error")
	}
}

func TestStreamEmptyEDB(t *testing.T) {
	p := mustParse(t, "Q(x,y) :- Missing(x,y).\ngoal Q.")
	db := datalog.NewDatabase(4)
	got := collect(t, p, db, "Q", Options{Eval: datalog.DefaultOptions})
	if len(got) != 0 {
		t.Fatalf("missing EDB should be empty, got %v", got)
	}
}

func TestDecisionsString(t *testing.T) {
	// Exercise the decision summary on a mixed program for coverage of
	// the inline case: B used once as a first atom streams inline.
	p := mustParse(t, `
		B(x,y) :- E(x,y).
		Q(x,z) :- B(x,y), F(y,z).
		goal Q.`)
	db := chainDB(16)
	s, err := Open(context.Background(), p, db, "Q", Options{Eval: datalog.DefaultOptions})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	found := ""
	for _, rd := range s.Decisions().Rules {
		for _, sd := range rd.Steps {
			if sd.Pred == "B" {
				found = fmt.Sprintf("%s/%s", sd.Exec, sd.Via)
			}
		}
	}
	if found != "stream/inline" {
		t.Fatalf("B decision = %q, want stream/inline", found)
	}
}
