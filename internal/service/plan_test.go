package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/plan"
)

// advProgram is adversarially ordered as written: the rule joins the
// dense E with itself before the two-row R, so the written order pays the
// E⋈E blowup while the compiled order starts from R.
const advProgram = "P(x,w) :- E(x,y), E(y,z), R(z,w). goal P."

// advCommit loads a dense-ish E and a tiny R.
func advCommit(t *testing.T, s *Service) {
	t.Helper()
	var insert []datalog.Fact
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j += 2 {
			insert = append(insert, datalog.Fact{Pred: "E", Tuple: datalog.Tuple{i % 16, j % 16}})
		}
	}
	insert = append(insert,
		datalog.Fact{Pred: "R", Tuple: datalog.Tuple{0, 1}},
		datalog.Fact{Pred: "R", Tuple: datalog.Tuple{2, 3}},
	)
	if _, err := s.Commit(insert, nil); err != nil {
		t.Fatal(err)
	}
}

func sortedTuples(in []datalog.Tuple) []datalog.Tuple {
	out := append([]datalog.Tuple(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// TestExplainLocal pins the Explain API: the adversarial rule is compiled
// to start from the tiny R relation and probe E on bound columns, the
// counters are the evaluation's, and a bound explain covers the seeded
// rewrite.
func TestExplainLocal(t *testing.T) {
	s, err := New(Config{Universe: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	advCommit(t, s)

	res, err := s.Explain(QueryRequest{Source: advProgram, Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pred != "P" || res.Version != 1 || res.Rounds == 0 {
		t.Fatalf("explain result %+v", res)
	}
	if len(res.Rules) != 1 {
		t.Fatalf("want 1 rule, got %d", len(res.Rules))
	}
	r := res.Rules[0]
	if want := "P(x,w) :- R(z,w), E(y,z), E(x,y)."; !r.Reordered || r.Compiled != want {
		t.Fatalf("compiled %q (reordered %t), want %q", r.Compiled, r.Reordered, want)
	}
	if got := fmt.Sprint(r.Steps[0].OrigIndex, r.Steps[1].OrigIndex, r.Steps[2].OrigIndex); got != "2 1 0" {
		t.Fatalf("step origins %s, want 2 1 0", got)
	}
	if r.ActualRows <= 0 || r.Firings != 1 {
		t.Fatalf("explain evaluation counters: %+v", r)
	}

	// Bound explain goes through the magic rewrite: the rules shown are the
	// seeded rewritten program's, not the source rules.
	zero := 0
	bound, err := s.Explain(QueryRequest{Source: advProgram, Version: -1, Bind: []*int{&zero, nil}})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Goal == "" || len(bound.Rules) < 2 {
		t.Fatalf("bound explain did not cover the rewrite: goal %q, %d rules", bound.Goal, len(bound.Rules))
	}
}

// TestExplainHTTP drives POST /v1/explain end to end and pins the wire
// shape.
func TestExplainHTTP(t *testing.T) {
	s, err := New(Config{Universe: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	advCommit(t, s)
	post(t, h, "/v1/register", `{"name":"adv","program":"`+advProgram+`"}`)

	w := post(t, h, "/v1/explain", `{"program":"adv"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/explain: %d %s", w.Code, w.Body)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &keys); err != nil {
		t.Fatalf("explain response did not parse: %v\n%s", err, w.Body)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	if got := fmt.Sprint(names); got != "[pred rounds rules version]" {
		t.Fatalf("explain wire keys %s", got)
	}
	var resp ExplainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Pred != "P" || len(resp.Rules) != 1 || !resp.Rules[0].Reordered {
		t.Fatalf("explain wire rules %+v", resp)
	}
	st := resp.Rules[0].Steps
	if len(st) != 3 || st[0].Atom[0] != 'R' {
		t.Fatalf("explain wire steps %+v", st)
	}
	// Later steps of a join chain probe on already-bound columns.
	if len(st[1].ProbeCols) == 0 || len(st[2].ProbeCols) == 0 {
		t.Fatalf("no probe columns in chained steps: %+v", st)
	}
	if resp.Rules[0].ActualRows <= 0 {
		t.Fatalf("wire actual rows %+v", resp.Rules[0])
	}
}

// TestSnapshotStatsPerVersion pins the per-snapshot statistics contract:
// each version carries its own catalog, untouched relations share entries
// with the previous snapshot, and big growth changes the fingerprint.
func TestSnapshotStatsPerVersion(t *testing.T) {
	s, err := New(Config{Universe: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Commit([]datalog.Fact{
		{Pred: "E", Tuple: datalog.Tuple{0, 1}},
		{Pred: "R", Tuple: datalog.Tuple{0, 1}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Grow E past a fingerprint bucket; R is untouched.
	var grow []datalog.Fact
	for i := 0; i < 40; i++ {
		grow = append(grow, datalog.Fact{Pred: "E", Tuple: datalog.Tuple{i, (i + 1) % 64}})
	}
	if _, err := s.Commit(grow, nil); err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Store().At(1)
	v2, _ := s.Store().At(2)
	if v1.Stats == nil || v2.Stats == nil {
		t.Fatal("snapshot without a statistics catalog")
	}
	e1, _ := v1.Stats.Rel("E")
	e2, _ := v2.Stats.Rel("E")
	if e1.Rows != 1 || e2.Rows != 40 { // grow includes a duplicate of E(0,1)
		t.Fatalf("per-version E rows: v1=%d v2=%d", e1.Rows, e2.Rows)
	}
	r1, _ := v1.Stats.Rel("R")
	r2, _ := v2.Stats.Rel("R")
	if r1 != r2 {
		t.Error("untouched relation's stats were recollected instead of shared")
	}
	if v1.Stats.Fingerprint() == v2.Stats.Fingerprint() {
		t.Error("40x growth did not change the stats epoch")
	}
}

// TestCatalogAdvanceMatchesCollect drives a seeded insert/delete schedule
// through Fork and Install — batches that repeat facts, name absent ones and
// insert what they delete; a second relation that only appears half-way;
// one fork that is built and dropped — and requires every installed
// version's catalog, advanced from the one before by the facts the fork
// really removed and added, to equal a fresh Collect of that version's
// database.
func TestCatalogAdvanceMatchesCollect(t *testing.T) {
	const universe, steps = 12, 300
	st := NewStore(universe, 4)
	rng := rand.New(rand.NewSource(37))
	draw := func(step int) datalog.Fact {
		if step >= steps/2 && rng.Intn(3) == 0 {
			return datalog.Fact{Pred: "F", Tuple: datalog.Tuple{rng.Intn(universe)}}
		}
		return edge(rng.Intn(universe), rng.Intn(universe))
	}
	for step := 0; step < steps; step++ {
		var ins, del []datalog.Fact
		for k := rng.Intn(5); k > 0; k-- {
			ins = append(ins, draw(step))
		}
		for k := rng.Intn(5); k > 0; k-- {
			del = append(del, draw(step))
		}
		next, err := st.Fork(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if step == 2*steps/3 {
			continue // a refused write-ahead append: the fork is dropped
		}
		st.Install(next)
		want := plan.Collect(next.DB)
		if got, want := fmt.Sprint(next.Stats.Names()), fmt.Sprint(want.Names()); got != want {
			t.Fatalf("step %d: the catalog has %s, the database %s", step, got, want)
		}
		facts := 0
		for _, name := range want.Names() {
			g, _ := next.Stats.Rel(name)
			w, _ := want.Rel(name)
			if g.Arity != w.Arity || g.Rows != w.Rows || fmt.Sprint(g.Distinct) != fmt.Sprint(w.Distinct) {
				t.Fatalf("step %d (+%v -%v): %s advanced to %d rows, distinct %v; collected %d rows, distinct %v",
					step, ins, del, name, g.Rows, g.Distinct, w.Rows, w.Distinct)
			}
			facts += w.Rows
		}
		if next.Facts != facts {
			t.Fatalf("step %d: the snapshot counts %d facts, the database holds %d", step, next.Facts, facts)
		}
		if next.Stats.DefaultRows() != want.DefaultRows() {
			t.Fatalf("step %d: default rows %d, collected %d", step, next.Stats.DefaultRows(), want.DefaultRows())
		}
	}
	if _, ok := st.Latest().Stats.Rel("F"); !ok {
		t.Fatal("the second relation never appeared")
	}
}
