package magic

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datalog"
)

// filterEval runs full saturation and restricts the goal relation to the
// goal bindings — the reference answer set.
func filterEval(t *testing.T, p *datalog.Program, db *datalog.Database, g datalog.Goal) []datalog.Tuple {
	t.Helper()
	res, err := datalog.Eval(p, db, datalog.DefaultOptions)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	var out []datalog.Tuple
	if rel := res.IDB[g.Pred]; rel != nil {
		for _, tu := range rel.Tuples() {
			if g.Matches(tu) {
				out = append(out, tu)
			}
		}
	}
	datalog.SortTuples(out)
	return out
}

func askTopDown(t *testing.T, p *datalog.Program, db *datalog.Database, g datalog.Goal) []datalog.Tuple {
	t.Helper()
	td, err := datalog.NewTopDown(p, db)
	if err != nil {
		t.Fatalf("NewTopDown: %v", err)
	}
	out := td.Ask(g)
	datalog.SortTuples(out)
	return out
}

func totalFacts(res *datalog.Result) int {
	n := 0
	for _, rel := range res.IDB {
		n += rel.Size()
	}
	return n
}

// lineGraph returns a path 0 -> 1 -> ... -> n-1.
func lineGraph(n int) *datalog.Database {
	db := datalog.NewDatabase(n)
	for i := 0; i+1 < n; i++ {
		db.AddFact("E", i, i+1)
	}
	return db
}

func randomGraph(n int, edges int, rng *rand.Rand) *datalog.Database {
	db := datalog.NewDatabase(n)
	for i := 0; i < edges; i++ {
		db.AddFact("E", rng.Intn(n), rng.Intn(n))
	}
	return db
}

// checkGoal asserts the three engines agree on one (program, db, goal)
// and returns the magic result for further inspection.
func checkGoal(t *testing.T, p *datalog.Program, db *datalog.Database, g datalog.Goal) *GoalResult {
	t.Helper()
	want := filterEval(t, p, db, g)
	mg, err := EvalGoal(context.Background(), p, db, g, DefaultOptions())
	if err != nil {
		t.Fatalf("EvalGoal(%s^%s): %v", g.Pred, AdornmentOf(g), err)
	}
	if !sameTuples(mg.Answers, want) {
		t.Fatalf("EvalGoal(%s^%s) = %v, full eval restricted = %v\nrewritten:\n%s",
			g.Pred, AdornmentOf(g), mg.Answers, want, mg.Rewrite.Program)
	}
	td := askTopDown(t, p, db, g)
	if !sameTuples(td, want) {
		t.Fatalf("TopDown.Ask(%s^%s) = %v, full eval restricted = %v", g.Pred, AdornmentOf(g), td, want)
	}
	return mg
}

func sameTuples(a, b []datalog.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestEvalGoalTransitiveClosure(t *testing.T) {
	p := datalog.TransitiveClosureProgram()
	db := lineGraph(6)
	for _, g := range []datalog.Goal{
		datalog.NewGoal("S", 2, map[int]int{0: 0}),
		datalog.NewGoal("S", 2, map[int]int{1: 5}),
		datalog.NewGoal("S", 2, map[int]int{0: 0, 1: 5}),
		datalog.NewGoal("S", 2, map[int]int{0: 5, 1: 0}), // no answers
		datalog.NewGoal("S", 2, nil),                     // all-free: rewrite degenerates to saturation
	} {
		checkGoal(t, p, db, g)
	}
	// Two components: the saturated relation filtered by the goal — what a
	// bound-goal subscriber keeps of a view's deltas — is the goal-directed
	// answer set, with nothing of the component the goal cannot reach.
	db = datalog.NewDatabase(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}} {
		db.AddFact("E", e[0], e[1])
	}
	if mg := checkGoal(t, p, db, datalog.NewGoal("S", 2, map[int]int{0: 0})); len(mg.Answers) != 3 {
		t.Fatalf("S(0,_) on 0->1->2->3, 4->5 = %v, want 3 answers", mg.Answers)
	}
}

// TestEvalGoalShrinksDemand is the headline property: with the source
// bound, goal-directed evaluation of transitive closure on a line graph
// derives far fewer facts than full saturation (which is quadratic).
func TestEvalGoalShrinksDemand(t *testing.T) {
	p := datalog.TransitiveClosureProgram()
	db := lineGraph(40)
	g := datalog.NewGoal("S", 2, map[int]int{0: 0, 1: 39})
	mg := checkGoal(t, p, db, g)
	full, err := datalog.Eval(p, db, datalog.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	fullFacts := totalFacts(full)
	magicFacts := totalFacts(mg.Result)
	if magicFacts >= fullFacts {
		t.Fatalf("magic derived %d facts, saturation %d — no shrinkage", magicFacts, fullFacts)
	}
	if mg.Stats.DemandFacts == 0 || mg.Stats.AnswerFacts == 0 {
		t.Fatalf("stats not populated: %+v", mg.Stats)
	}
}

func TestEvalGoalTheorem61(t *testing.T) {
	p := datalog.QklPrograms(2, 0) // defines Q2(s,s1,s2) and Q1(s,s1,t1)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		n := 10 + trial*4
		db := randomGraph(n, 3*n, rng)
		goals := []datalog.Goal{
			datalog.NewGoal("Q2", 3, map[int]int{0: 0, 1: 1, 2: 2}),
			datalog.NewGoal("Q2", 3, map[int]int{0: 0}),
			datalog.NewGoal("Q1", 3, map[int]int{0: 0, 2: n - 1}),
		}
		for _, g := range goals {
			checkGoal(t, p, db, g)
		}
	}
}

func TestEvalGoalSameGeneration(t *testing.T) {
	p := datalog.SameGenerationProgram()
	rng := rand.New(rand.NewSource(11))
	n := 12
	db := datalog.NewDatabase(n)
	for i := 0; i < 2*n; i++ {
		db.AddFact("Flat", rng.Intn(n), rng.Intn(n))
		db.AddFact("Up", rng.Intn(n), rng.Intn(n))
		db.AddFact("Down", rng.Intn(n), rng.Intn(n))
	}
	for _, g := range []datalog.Goal{
		datalog.NewGoal("SG", 2, map[int]int{0: 3}),
		datalog.NewGoal("SG", 2, map[int]int{0: 3, 1: 7}),
	} {
		checkGoal(t, p, db, g)
	}
}

// TestEvalGoalConstraintsAndUniverse exercises the dialect's corners: a
// rule whose head variable occurs in no body atom (ranging over the
// universe) combined with ≠ constraints, under partial bindings.
func TestEvalGoalConstraintsAndUniverse(t *testing.T) {
	src := `
T(x,y,w) :- E(x,y), w != x, w != y.
R(x,z) :- T(x,y,w), E(y,z), w != z.
goal R.
`
	p := datalog.MustParse(src)
	db := lineGraph(7)
	for _, g := range []datalog.Goal{
		datalog.NewGoal("R", 2, map[int]int{0: 0}),
		datalog.NewGoal("R", 2, map[int]int{1: 2}),
		datalog.NewGoal("T", 3, map[int]int{0: 1, 2: 4}),
		datalog.NewGoal("T", 3, nil),
	} {
		checkGoal(t, p, db, g)
	}
}

// TestRewriteValidates is the guardrail: seedless and seeded rewritten
// programs both pass datalog.Validate on a spread of sources/goals.
func TestRewriteValidates(t *testing.T) {
	p21 := datalog.QklPrograms(2, 1) // Q2 has arity 4: (s, s1, s2, t1)
	cases := []struct {
		p *datalog.Program
		g datalog.Goal
	}{
		{datalog.TransitiveClosureProgram(), datalog.NewGoal("S", 2, map[int]int{0: 0})},
		{datalog.SameGenerationProgram(), datalog.NewGoal("SG", 2, map[int]int{1: 4})},
		{p21, datalog.NewGoal("Q2", 4, map[int]int{0: 0, 1: 1, 2: 2, 3: 3})},
		{datalog.TwoDisjointPathsAcyclicProgram(0, 5, 1, 6), datalog.NewGoal("D", 2, map[int]int{0: 0, 1: 1})},
	}
	for _, tc := range cases {
		rw, err := NewRewrite(tc.p, tc.g, nil)
		if err != nil {
			t.Fatalf("NewRewrite(%s): %v", tc.g.Pred, err)
		}
		if err := datalog.Validate(rw.Program); err != nil {
			t.Fatalf("seedless rewrite invalid: %v\n%s", err, rw.Program)
		}
		seeded, err := rw.Seeded(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if err := datalog.Validate(seeded); err != nil {
			t.Fatalf("seeded rewrite invalid: %v\n%s", err, seeded)
		}
	}
}

// TestRewriteNameCollision forces a source predicate that collides with
// the generated naming scheme and checks the separator lengthens.
func TestRewriteNameCollision(t *testing.T) {
	src := `
T_bf(x,y) :- E(x,y).
T(x,y) :- E(x,y).
T(x,z) :- T(x,y), T_bf(y,z).
goal T.
`
	p := datalog.MustParse(src)
	db := lineGraph(5)
	g := datalog.NewGoal("T", 2, map[int]int{0: 0})
	mg := checkGoal(t, p, db, g)
	if mg.Rewrite.GoalPred == "T_bf" {
		t.Fatalf("adorned goal name collided with source predicate: %s", mg.Rewrite.GoalPred)
	}
}

func TestEvalGoalErrors(t *testing.T) {
	p := datalog.TransitiveClosureProgram()
	db := lineGraph(4)
	if _, err := EvalGoal(context.Background(), p, db, datalog.NewGoal("E", 2, map[int]int{0: 0}), DefaultOptions()); err == nil {
		t.Fatal("expected error for EDB goal predicate")
	}
	if _, err := EvalGoal(context.Background(), p, db, datalog.NewGoal("S", 2, map[int]int{0: 99}), DefaultOptions()); err == nil {
		t.Fatal("expected error for out-of-universe binding")
	}
	if _, err := EvalGoal(context.Background(), p, db, datalog.Goal{Pred: "S", Bound: []bool{true}, Value: []int{0}}, DefaultOptions()); err == nil {
		t.Fatal("expected error for arity mismatch")
	}
}

// TestEvalGoalCancellation checks ctx cancellation aborts the rewritten
// evaluation and surfaces the context error with partial results.
func TestEvalGoalCancellation(t *testing.T) {
	p := datalog.TransitiveClosureProgram()
	db := lineGraph(60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := datalog.NewGoal("S", 2, map[int]int{0: 0})
	_, err := EvalGoal(ctx, p, db, g, DefaultOptions())
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}

// TestSIPPluggable checks both shipped strategies agree on answers while
// producing their own orders.
func TestSIPPluggable(t *testing.T) {
	p := datalog.TransitiveClosureProgram()
	db := lineGraph(8)
	g := datalog.NewGoal("S", 2, map[int]int{1: 7})
	want := filterEval(t, p, db, g)
	for _, sip := range []SIP{BoundFirstSIP{}, LeftToRightSIP{}} {
		opt := DefaultOptions()
		opt.SIP = sip
		mg, err := EvalGoal(context.Background(), p, db, g, opt)
		if err != nil {
			t.Fatalf("%s: %v", sip.Name(), err)
		}
		if !sameTuples(mg.Answers, want) {
			t.Fatalf("%s: answers %v, want %v", sip.Name(), mg.Answers, want)
		}
		if mg.Stats.SIP != sip.Name() {
			t.Fatalf("stats SIP = %q, want %q", mg.Stats.SIP, sip.Name())
		}
	}
}
