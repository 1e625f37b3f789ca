package service

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/datalog"
)

// bindOf builds a wire binding from a map of bound positions.
func bindOf(arity int, bound map[int]int) []*int {
	bind := make([]*int, arity)
	for i, v := range bound {
		v := v
		bind[i] = &v
	}
	return bind
}

// filtered keeps the tuples of res matching the binding.
func filtered(tuples []datalog.Tuple, bound map[int]int) []datalog.Tuple {
	var out []datalog.Tuple
	for _, t := range tuples {
		ok := true
		for i, v := range bound {
			if t[i] != v {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

func sameTupleSet(a, b []datalog.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	key := func(t datalog.Tuple) string {
		b, _ := json.Marshal([]int(t))
		return string(b)
	}
	for _, t := range a {
		seen[key(t)]++
	}
	for _, t := range b {
		seen[key(t)]--
		if seen[key(t)] < 0 {
			return false
		}
	}
	return true
}

// TestGoalQueryMatchesFiltered checks the core contract of the bound
// query path: a query with Bind set returns exactly the unbound result
// restricted to the binding, with Origin "magic" and its demand count
// attached; a repeat evaluates again and answers the same.
func TestGoalQueryMatchesFiltered(t *testing.T) {
	s := newTC(t, 8)
	if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2), edge(2, 3), edge(5, 6)}, nil); err != nil {
		t.Fatal(err)
	}
	full, err := s.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []map[int]int{
		{0: 0},
		{1: 3},
		{0: 0, 1: 3},
		{0: 5, 1: 6},
		{0: 7}, // no answers
	}
	for _, bound := range cases {
		res, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, bound)})
		if err != nil {
			t.Fatalf("bound query %v: %v", bound, err)
		}
		if res.Origin != "magic" {
			t.Fatalf("bound query %v origin %q, want magic", bound, res.Origin)
		}
		if res.DemandFacts < 1 || res.Goal == "" {
			t.Fatalf("bound query %v missing goal or demand (%+v)", bound, res)
		}
		want := filtered(full.Tuples, bound)
		if !sameTupleSet(res.Tuples, want) {
			t.Fatalf("bound query %v = %v, want %v", bound, res.Tuples, want)
		}
		again, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, bound)})
		if err != nil {
			t.Fatal(err)
		}
		if again.Origin != "magic" || again.DemandFacts != res.DemandFacts {
			t.Fatalf("repeat bound query %v origin %q demand %d, want magic and %d", bound, again.Origin, again.DemandFacts, res.DemandFacts)
		}
		if !sameTupleSet(again.Tuples, want) {
			t.Fatalf("repeated bound query %v = %v, want %v", bound, again.Tuples, want)
		}
	}
}

// TestGoalQueryCacheKeysSeparate makes sure a bound result never aliases
// the full relation: interleaving bound and unbound queries at the same
// version, and different binding patterns, must keep each correct.
func TestGoalQueryCacheKeysSeparate(t *testing.T) {
	s := newTC(t, 8)
	if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	bound, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, map[int]int{0: 0})})
	if err != nil {
		t.Fatal(err)
	}
	if len(bound.Tuples) != 2 {
		t.Fatalf("S(0,_) has %d tuples, want 2", len(bound.Tuples))
	}
	full, err := s.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Tuples) != 3 {
		t.Fatalf("unbound query after bound returned %d tuples, want 3", len(full.Tuples))
	}
	// Different binding patterns are distinct entries too.
	other, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, map[int]int{1: 2})})
	if err != nil {
		t.Fatal(err)
	}
	if other.Origin != "magic" || len(other.Tuples) != 2 {
		t.Fatalf("S(_,2) origin %q count %d, want magic/2", other.Origin, len(other.Tuples))
	}
}

// TestGoalQueryRewriteCache verifies the rewrite cache is keyed by
// adornment, not by the concrete bound values or the version: repeating
// a binding pattern with different constants or across commits reuses
// the rewrite, while a new pattern misses.
func TestGoalQueryRewriteCache(t *testing.T) {
	s := newTC(t, 8)
	if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, map[int]int{0: 0})}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Magic.GoalQueries != 1 || st.Magic.RewriteMisses != 1 || st.Magic.RewriteHits != 0 {
		t.Fatalf("after first bound query: %+v", st.Magic)
	}
	// Same adornment (bf), different constant → rewrite hit.
	if _, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, map[int]int{0: 1})}); err != nil {
		t.Fatal(err)
	}
	// Same adornment across a commit (new version) → still a rewrite hit.
	if _, err := s.Commit([]datalog.Fact{edge(2, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, map[int]int{0: 0})}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Magic.RewriteHits != 2 || st.Magic.RewriteMisses != 1 {
		t.Fatalf("rewrite cache hits=%d misses=%d, want 2/1", st.Magic.RewriteHits, st.Magic.RewriteMisses)
	}
	// New adornment (fb) → miss.
	if _, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, map[int]int{1: 3})}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Magic.RewriteMisses != 2 || st.Magic.Entries != 2 {
		t.Fatalf("after new adornment: %+v", st.Magic)
	}
	if st.Magic.GoalQueries != 4 {
		t.Fatalf("goal queries = %d, want 4", st.Magic.GoalQueries)
	}
}

// TestGoalQueryValidation exercises the error paths of the bound query
// route: wrong binding width and out-of-universe constants are caller
// errors, and neither advances state.
func TestGoalQueryValidation(t *testing.T) {
	s := newTC(t, 4)
	if _, err := s.Commit([]datalog.Fact{edge(0, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(3, map[int]int{0: 0})}); err == nil {
		t.Fatal("arity-mismatched bind accepted")
	}
	if _, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, map[int]int{0: 99})}); err == nil {
		t.Fatal("out-of-universe bound value accepted")
	}
	// All-free bind degrades to the unbound path.
	res, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: make([]*int, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Origin == "magic" {
		t.Fatalf("all-free bind took the magic path (origin %q)", res.Origin)
	}
}

// TestGoalQueryHistorical pins a bound query to an old version: it must
// answer from that version's snapshot, not the latest.
func TestGoalQueryHistorical(t *testing.T) {
	s := newTC(t, 8)
	if _, err := s.Commit([]datalog.Fact{edge(0, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	v1 := s.Store().Version()
	if _, err := s.Commit([]datalog.Fact{edge(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	old, err := s.Query(QueryRequest{Program: "tc", Version: v1, Bind: bindOf(2, map[int]int{0: 0})})
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Tuples) != 1 {
		t.Fatalf("S(0,_) at version %d has %d tuples, want 1", v1, len(old.Tuples))
	}
	cur, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, map[int]int{0: 0})})
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Tuples) != 2 {
		t.Fatalf("S(0,_) at latest has %d tuples, want 2", len(cur.Tuples))
	}
}

// TestGoalQueryCancellationDoesNotPoison is the guardrail for the
// no-poisoning invariant: a bound query aborted by its context must
// leave the registered incremental view intact — subsequent commits,
// unbound queries and bound queries all still produce correct answers.
func TestGoalQueryCancellationDoesNotPoison(t *testing.T) {
	s := newTC(t, 16)
	var facts []datalog.Fact
	for i := 0; i < 15; i++ {
		facts = append(facts, edge(i, i+1))
	}
	if _, err := s.Commit(facts, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryContext(ctx, QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, map[int]int{0: 0})}); err == nil {
		t.Fatal("bound query with cancelled context succeeded")
	}
	// The incremental view must still maintain correctly...
	if _, err := s.Commit([]datalog.Fact{edge(15, 0)}, nil); err != nil {
		t.Fatalf("commit after aborted goal query: %v", err)
	}
	full, err := s.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Tuples) != 16*16 {
		t.Fatalf("closure of the 16-cycle has %d tuples, want 256", len(full.Tuples))
	}
	// ...and a fresh bound query still answers correctly.
	bound, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: bindOf(2, map[int]int{0: 3})})
	if err != nil {
		t.Fatal(err)
	}
	if len(bound.Tuples) != 16 {
		t.Fatalf("S(3,_) on the 16-cycle has %d tuples, want 16", len(bound.Tuples))
	}
}

// TestQuickGoalQueryEquivalence is the randomized service-level check:
// on random graphs and random bindings the magic path must agree with
// the unbound result filtered down, across interleaved commits.
func TestQuickGoalQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const universe = 10
	s, err := New(Config{Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("tc", tcSource); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		var ins []datalog.Fact
		for i := 0; i < 4; i++ {
			ins = append(ins, edge(rng.Intn(universe), rng.Intn(universe)))
		}
		if _, err := s.Commit(ins, nil); err != nil {
			t.Fatal(err)
		}
		full, err := s.Query(QueryRequest{Program: "tc", Version: -1})
		if err != nil {
			t.Fatal(err)
		}
		bound := map[int]int{}
		for i := 0; i < 2; i++ {
			if rng.Intn(2) == 0 {
				bound[i] = rng.Intn(universe)
			}
		}
		if len(bound) == 0 {
			bound[rng.Intn(2)] = rng.Intn(universe)
		}
		res, err := s.Query(QueryRequest{Program: "tc", Version: full.Version, Bind: bindOf(2, bound)})
		if err != nil {
			t.Fatalf("round %d bound query %v: %v", round, bound, err)
		}
		if want := filtered(full.Tuples, bound); !sameTupleSet(res.Tuples, want) {
			t.Fatalf("round %d: bound %v gave %v, want %v", round, bound, res.Tuples, want)
		}
	}
}

// TestHTTPGoalQuery drives the bound path end to end over the wire:
// bind with nulls in the JSON body, goal and demand_facts in the
// response, and the magic counters visible in /stats.
func TestHTTPGoalQuery(t *testing.T) {
	s, err := New(Config{Universe: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if w := post(t, h, "/v1/register", `{"name":"tc","program":"S(x,y) :- E(x,y). S(x,y) :- E(x,z), S(z,y). goal S."}`); w.Code != http.StatusOK {
		t.Fatalf("/v1/register: %d %s", w.Code, w.Body)
	}
	if w := post(t, h, "/v1/commit", `{"insert":[{"pred":"E","tuple":[0,1]},{"pred":"E","tuple":[1,2]},{"pred":"E","tuple":[4,5]}]}`); w.Code != http.StatusOK {
		t.Fatalf("/v1/commit: %d %s", w.Code, w.Body)
	}
	w := post(t, h, "/v1/query", `{"program":"tc","bind":[0,null]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/query bound: %d %s", w.Code, w.Body)
	}
	var q QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Origin != "magic" || q.Goal != "S(0,_)" || q.Count != 2 {
		t.Fatalf("bound query response %+v", q)
	}
	if q.DemandFacts == nil || *q.DemandFacts < 1 {
		t.Fatalf("bound query response missing demand_facts: %+v", q)
	}
	// Membership form composes with bind.
	w = post(t, h, "/v1/query", `{"program":"tc","bind":[0,null],"tuple":[0,2]}`)
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Has == nil || !*q.Has {
		t.Fatalf("bound membership response %+v", q)
	}
	// A malformed bind is a 400, not a panic.
	if w := post(t, h, "/v1/query", `{"program":"tc","bind":[0]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("short bind: %d %s", w.Code, w.Body)
	}
	// The magic counters surface in /stats: two goal queries, each
	// evaluated, one rewrite computed and reused by the second.
	st := s.Stats()
	if st.Magic.GoalQueries != 2 || st.Magic.RewriteMisses != 1 || st.Magic.RewriteHits != 1 {
		t.Fatalf("magic stats %+v", st.Magic)
	}
}

// TestBoundHop2GoalProbesByOutDegree pins the join order of a served bound
// goal: the hop2 rewrite J_bf(x,y) :- M_J_bf(x), E(x,z), E(z,y) joins from
// the one-row magic atom and probes E on a bound column twice, so a goal
// visits the bound node's out-neighbourhood two hops deep (about
// out-degree + out-degree² rows), never the whole edge relation.
func TestBoundHop2GoalProbesByOutDegree(t *testing.T) {
	const n, m = 1024, 4096
	s, err := New(Config{Universe: n})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	out := map[int][]int{}
	seen := map[[2]int]bool{}
	var facts []datalog.Fact
	for len(facts) < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		out[a] = append(out[a], b)
		facts = append(facts, edge(a, b))
	}
	if _, err := s.Commit(facts, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("hop2", hop2Source); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 16; x++ {
		q, err := s.resolve(QueryRequest{Program: "hop2", Pred: "J", Version: -1, Bind: bindOf(2, map[int]int{0: x})})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.open(context.Background(), &q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ok := st.Next(); ok; _, ok = st.Next() {
		}
		st.Close()
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		reach := 1 + len(out[x])
		for _, z := range out[x] {
			reach += len(out[z])
		}
		if pulls := st.Counters().Pulls; pulls > 4*int64(reach) {
			t.Errorf("J(%d,_): %d rows pulled, want at most %d (out-degree %d, two hops %d rows, |E| = %d)",
				x, pulls, 4*reach, len(out[x]), reach, m)
		}
	}
}
