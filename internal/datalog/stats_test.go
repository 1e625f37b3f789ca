package datalog

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// checkStatsConsistent verifies the bookkeeping identities every
// evaluation must satisfy, whatever the program.
func checkStatsConsistent(t *testing.T, res *Result) {
	t.Helper()
	st := res.Stats
	if st == nil {
		t.Fatal("Result.Stats is nil")
	}
	var derived, fresh, dups, firings int64
	for _, rs := range st.Rules {
		if rs.Rule == "" {
			t.Fatal("rule stats entry without its printed rule")
		}
		if rs.Derived != rs.New+rs.Duplicates {
			t.Fatalf("rule %q: derived %d != new %d + duplicates %d", rs.Rule, rs.Derived, rs.New, rs.Duplicates)
		}
		derived += rs.Derived
		fresh += rs.New
		dups += rs.Duplicates
		firings += rs.Firings
	}
	if derived != st.Derived || fresh != st.New || dups != st.Duplicates || firings != st.Firings {
		t.Fatalf("totals do not sum: %+v", st)
	}
	if st.Derived != int64(res.Derivations) {
		t.Fatalf("stats derived %d != Result.Derivations %d", st.Derived, res.Derivations)
	}
	total := 0
	for _, rel := range res.IDB {
		total += rel.Size()
	}
	// New counts exactly the committed IDB tuples (holds for any single
	// evaluation; incremental deletions are checked separately).
	if st.New != int64(total) {
		t.Fatalf("stats new %d != IDB cardinality %d", st.New, total)
	}
	var roundDerived, roundNew int64
	for _, rs := range st.Rounds {
		roundDerived += rs.Derived
		roundNew += rs.New
	}
	if st.RoundsDropped == 0 {
		if len(st.Rounds) != res.Rounds {
			t.Fatalf("%d round entries for %d rounds", len(st.Rounds), res.Rounds)
		}
		if roundDerived != st.Derived || roundNew != st.New {
			t.Fatalf("round sums (%d derived, %d new) != totals (%d, %d)",
				roundDerived, roundNew, st.Derived, st.New)
		}
	}
}

// TestEvalStatsE1TransitiveClosure covers the E1/E14 workload program.
func TestEvalStatsE1TransitiveClosure(t *testing.T) {
	res := MustEval(TransitiveClosureProgram(), FromGraph(graph.DirectedPath(20)))
	checkStatsConsistent(t, res)
	if len(res.Stats.Rules) != 2 {
		t.Fatalf("TC has 2 rules, stats has %d", len(res.Stats.Rules))
	}
	for _, rs := range res.Stats.Rules {
		if rs.Firings == 0 || rs.Derived == 0 || rs.Probes == 0 {
			t.Fatalf("rule %q: zero counters %+v", rs.Rule, rs)
		}
	}
	// The recursive rule rederives on every delta round; the base rule
	// fires its one delta-free shot in round 1.
	if res.Stats.Rules[1].Firings <= res.Stats.Rules[0].Firings {
		t.Fatalf("recursive rule should fire more: %+v", res.Stats.Rules)
	}
}

// TestEvalStatsE5DisjointPaths covers the Q_{2,0} stage program.
func TestEvalStatsE5DisjointPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Random(8, 0.3, rng)
	res := MustEval(QklPrograms(2, 0), FromGraph(g))
	checkStatsConsistent(t, res)
	if len(res.Stats.Rules) != len(QklPrograms(2, 0).Rules) {
		t.Fatalf("one stats entry per rule, got %d", len(res.Stats.Rules))
	}
}

// TestEvalStatsE14IndexAblation: both sides of the E14 ablation carry
// stats, and the unindexed run probes at least as often per answer (every
// probe is a scan).
func TestEvalStatsE14IndexAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Random(40, 0.1, rng)
	indexed, err := Eval(TransitiveClosureProgram(), FromGraph(g), DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := Eval(TransitiveClosureProgram(), FromGraph(g), DefaultOptions.WithIndexes(false))
	if err != nil {
		t.Fatal(err)
	}
	checkStatsConsistent(t, indexed)
	checkStatsConsistent(t, scan)
	// Same logical work either way — only the probe mechanism differs.
	if indexed.Stats.New != scan.Stats.New {
		t.Fatalf("indexed new %d != scan new %d", indexed.Stats.New, scan.Stats.New)
	}
}

// TestNaiveEvalStats: the naive strategy records rounds and rules too.
func TestNaiveEvalStats(t *testing.T) {
	res, err := Eval(TransitiveClosureProgram(), FromGraph(graph.DirectedPath(8)),
		DefaultOptions.WithSemiNaive(false))
	if err != nil {
		t.Fatal(err)
	}
	checkStatsConsistent(t, res)
	if res.Stats.Duplicates == 0 {
		t.Fatal("naive evaluation rederives everything; duplicates must be counted")
	}
}

// TestIncrementalStatsAccumulate: update maintenance keeps extending the
// same counters.
func TestIncrementalStatsAccumulate(t *testing.T) {
	inc, err := NewIncremental(TransitiveClosureProgram(), FromGraph(graph.DirectedPath(20)), DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	before := inc.Result().Stats
	if err := inc.Insert(Fact{Pred: "E", Tuple: Tuple{19, 0}}); err != nil {
		t.Fatal(err)
	}
	after := inc.Result().Stats
	if after.New <= before.New || after.Firings <= before.Firings {
		t.Fatalf("stats did not grow across an update: before %+v after %+v", before, after)
	}
	if len(after.Rounds) <= len(before.Rounds) {
		t.Fatal("maintenance rounds were not recorded")
	}
	total := 0
	for _, rel := range inc.Result().IDB {
		total += rel.Size()
	}
	// DRed deletions remove tuples from the IDB without decrementing the
	// historical New counter, so equality holds only on insert-only
	// histories like this one.
	if after.New != int64(total) {
		t.Fatalf("accumulated new %d != IDB cardinality %d", after.New, total)
	}
}

// TestRoundStatsCapped: the per-round history is bounded so long-lived
// incremental views cannot grow it without limit.
func TestRoundStatsCapped(t *testing.T) {
	e := &evaluator{}
	for i := 1; i <= maxRoundStats+100; i++ {
		e.recordRound(RoundStats{Round: i})
	}
	if len(e.roundStats) != maxRoundStats {
		t.Fatalf("round history %d, cap %d", len(e.roundStats), maxRoundStats)
	}
	if e.roundsDropped != 100 {
		t.Fatalf("dropped %d, want 100", e.roundsDropped)
	}
	if e.roundStats[0].Round != 101 || e.roundStats[len(e.roundStats)-1].Round != maxRoundStats+100 {
		t.Fatalf("trailing window wrong: first %d last %d",
			e.roundStats[0].Round, e.roundStats[len(e.roundStats)-1].Round)
	}
}
