package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/plan"
)

// advProgram is adversarially ordered for a textual evaluator: the rule
// joins the dense E with itself before the two-row R, so textual order
// pays the E⋈E blowup while the planner anchors on R.
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

// TestPlannedServiceEquivalence checks the service's planned answers — free
// queries, bound (magic) queries and historical versions — against the
// engine evaluating the same program on the same snapshot in textual body
// order (datalog.DefaultOptions carries no planner): identical tuple sets.
func TestPlannedServiceEquivalence(t *testing.T) {
	s, err := New(Config{Universe: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	advCommit(t, s)
	if _, err := s.Commit([]datalog.Fact{{Pred: "R", Tuple: datalog.Tuple{4, 5}}}, nil); err != nil {
		t.Fatal(err)
	}

	zero := 0
	reqs := []QueryRequest{
		{Source: advProgram, Version: -1},
		{Source: advProgram, Version: 1}, // historical: planned against v1's own stats
		{Source: tcProgram, Version: -1},
		{Source: advProgram, Version: -1, Bind: []*int{&zero, nil}}, // magic pipeline
	}
	for i, req := range reqs {
		a, err := s.Query(req)
		if err != nil {
			t.Fatalf("req %d planned: %v", i, err)
		}
		snap, ok := s.Store().At(a.Version)
		if !ok {
			t.Fatalf("req %d: version %d is not retained", i, a.Version)
		}
		prog, err := datalog.Parse(req.Source)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := datalog.EvalContext(context.Background(), prog, snap.DB, datalog.DefaultOptions)
		if err != nil {
			t.Fatalf("req %d textual: %v", i, err)
		}
		var textual []datalog.Tuple
		for _, tup := range ref.Goal(prog).Tuples() {
			if req.Bind == nil || tup[0] == zero {
				textual = append(textual, tup)
			}
		}
		at, bt := sortedTuples(a.Tuples), sortedTuples(textual)
		if len(at) != len(bt) {
			t.Fatalf("req %d: %d vs %d tuples", i, len(at), len(bt))
		}
		for k := range at {
			for j := range at[k] {
				if at[k][j] != bt[k][j] {
					t.Fatalf("req %d: tuple %d differs: %v vs %v", i, k, at[k], bt[k])
				}
			}
		}
	}
	if c := s.Stats().Planner; !c.Enabled || c.Built == 0 {
		t.Fatalf("the service did not plan: %+v", c)
	}
}

// TestExplainLocal pins the Explain API: the adversarial rule is
// reordered to anchor on the tiny R relation, estimates and actuals are
// index-aligned, and a repeated explain hits the plan cache.
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
	if res.Pred != "P" || res.Version != 1 || res.Plan == nil {
		t.Fatalf("explain result %+v", res)
	}
	if len(res.Plan.Rules) != 1 {
		t.Fatalf("want 1 rule plan, got %d", len(res.Plan.Rules))
	}
	rp := res.Plan.Rules[0]
	if !rp.Reordered || len(rp.Steps) != 3 {
		t.Fatalf("adversarial rule not reordered: %+v", rp)
	}
	if rp.Steps[0].Atom[0] != 'R' {
		t.Fatalf("plan did not anchor on the small relation: first step %q", rp.Steps[0].Atom)
	}
	if len(res.Actuals) != len(res.Plan.Rules) {
		t.Fatalf("actuals misaligned: %d vs %d", len(res.Actuals), len(res.Plan.Rules))
	}
	if res.Actuals[0].Derived <= 0 {
		t.Fatalf("explain evaluation derived nothing: %+v", res.Actuals[0])
	}
	if res.CacheHit {
		t.Fatal("first explain reported a plan-cache hit")
	}
	again, err := s.Explain(QueryRequest{Source: advProgram, Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("repeated explain missed the plan cache")
	}

	// Bound explain goes through the magic rewrite: the plan covers the
	// seeded rewritten program, not the source rules.
	zero := 0
	bound, err := s.Explain(QueryRequest{Source: advProgram, Version: -1, Bind: []*int{&zero, nil}})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Goal == "" || len(bound.Plan.Rules) < 2 {
		t.Fatalf("bound explain did not cover the rewrite: goal %q, %d rules", bound.Goal, len(bound.Plan.Rules))
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
	var resp ExplainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("explain response did not parse: %v\n%s", err, w.Body)
	}
	if resp.Pred != "P" || resp.Strategy == "" || len(resp.Epoch) != 16 {
		t.Fatalf("explain wire fields %+v", resp)
	}
	if len(resp.Rules) != 1 || !resp.Rules[0].Reordered {
		t.Fatalf("explain wire rules %+v", resp.Rules)
	}
	st := resp.Rules[0].Steps
	if len(st) != 3 || st[0].Atom[0] != 'R' {
		t.Fatalf("explain wire steps %+v", st)
	}
	// Later steps of a join chain probe on already-bound columns.
	if len(st[1].ProbeCols) == 0 && len(st[2].ProbeCols) == 0 {
		t.Fatalf("no probe columns in chained steps: %+v", st)
	}
	if resp.Rules[0].ActualRows <= 0 {
		t.Fatalf("wire actual rows %+v", resp.Rules[0])
	}

}

// TestPlannerMetricsSeries checks the planner's obs series are exported
// and move with traffic.
func TestPlannerMetricsSeries(t *testing.T) {
	s, err := New(Config{Universe: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	advCommit(t, s)
	// Two scratch evaluations of the same source: build then cache hit.
	post(t, h, "/v1/register", `{"name":"adv","program":"`+advProgram+`"}`)
	post(t, h, "/v1/query", `{"source":"`+advProgram+`","version":1}`)

	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(rw.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var simple map[string]struct {
		Type  string  `json:"type"`
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &simple); err == nil {
		if simple["datalog_plans_built_total"].Value <= 0 {
			t.Errorf("datalog_plans_built_total = %v, want > 0", simple["datalog_plans_built_total"].Value)
		}
		if simple["datalog_plan_cache_hits_total"].Value <= 0 {
			t.Errorf("datalog_plan_cache_hits_total = %v, want > 0 (register then query share the plan)",
				simple["datalog_plan_cache_hits_total"].Value)
		}
		if simple["datalog_plan_cache_entries"].Value <= 0 {
			t.Errorf("datalog_plan_cache_entries = %v, want > 0", simple["datalog_plan_cache_entries"].Value)
		}
	}
	for _, name := range []string{
		"datalog_plans_built_total", "datalog_plan_cache_hits_total",
		"datalog_plan_cache_misses_total", "datalog_plan_rules_pruned_total",
		"datalog_plan_atoms_pruned_total", "datalog_plan_cache_entries",
		"datalog_plan_estimation_error",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metrics missing %s", name)
		}
	}
	// The estimation-error histogram saw the evaluations.
	var hist map[string]struct {
		Type  string `json:"type"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &hist); err == nil {
		if hist["datalog_plan_estimation_error"].Count <= 0 {
			t.Errorf("datalog_plan_estimation_error count = %d, want > 0", hist["datalog_plan_estimation_error"].Count)
		}
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
