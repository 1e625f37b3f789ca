package stream

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/magic"
	"repro/internal/plan"
)

// Randomized streamed ≡ materialized equivalence. Each workload draws a
// random layered Datalog(≠) program (some recursive, exercising the
// fixpoint spool), a random database, and a query predicate, then requires
// the streaming path to produce byte-identical answers (after canonical
// sort) to full semi-naive materialization — per tuple, not per count.
// Fixed recursive inputs join them: a streamed consumer over a recursive
// producer, and mutual recursion under a streamed consumer. A second
// pass routes random bound goals through the magic-set rewrite and streams
// the rewritten answer predicate against magic.EvalGoal. Both passes also
// run chain workloads (chainProgram, deepJoinProgram): a single-use
// intermediate joined on a bound column at the tail of an EDB fanout
// chain, so a spooled relation is probed below several rebinding levels.
// Run under -race via make verify.

type progGen struct {
	rng *rand.Rand
	n   int // universe size
}

var genVars = []string{"x", "y", "z", "u", "v", "w"}

func (g *progGen) term(vars []string) datalog.Term {
	if g.rng.Intn(10) < 8 {
		return datalog.V(vars[g.rng.Intn(len(vars))])
	}
	return datalog.C(g.rng.Intn(g.n))
}

// program draws a random layered program over EDBs E1/2, E2/2, E3/1.
// allowRec lets later layers reference themselves or later layers
// cyclically, producing recursive slices the fixpoint spool computes.
func (g *progGen) program(allowRec bool) *datalog.Program {
	type predSig struct {
		name  string
		arity int
	}
	edbs := []predSig{{"E1", 2}, {"E2", 2}, {"E3", 1}}
	nIDB := 2 + g.rng.Intn(3)
	idbs := make([]predSig, nIDB)
	for i := range idbs {
		idbs[i] = predSig{fmt.Sprintf("P%d", i), 1 + g.rng.Intn(3)}
	}
	var rules []datalog.Rule
	for i, ps := range idbs {
		nRules := 1 + g.rng.Intn(2)
		for r := 0; r < nRules; r++ {
			nAtoms := 1 + g.rng.Intn(3)
			var body []interface{}
			bodyVars := map[string]bool{}
			for a := 0; a < nAtoms; a++ {
				// Draw from EDBs and earlier IDBs; occasionally (when
				// recursion is allowed) from this or later layers.
				var src predSig
				pool := len(edbs) + i
				if allowRec && g.rng.Intn(5) == 0 {
					src = idbs[i+g.rng.Intn(nIDB-i)]
				} else if k := g.rng.Intn(pool); k < len(edbs) {
					src = edbs[k]
				} else {
					src = idbs[k-len(edbs)]
				}
				args := make([]datalog.Term, src.arity)
				for j := range args {
					args[j] = g.term(genVars)
					if args[j].IsVar() {
						bodyVars[args[j].Var] = true
					}
				}
				body = append(body, datalog.NewAtom(src.name, args...))
			}
			// Occasional constraint; ground-false combinations are
			// rewritten to hold so Validate accepts the program.
			if g.rng.Intn(5) < 2 {
				l, r := g.term(genVars), g.term(genVars)
				neq := g.rng.Intn(4) > 0
				if !l.IsVar() && !r.IsVar() {
					neq = l.Const != r.Const
				}
				body = append(body, datalog.Constraint{Left: l, Right: r, Neq: neq})
			}
			headArgs := make([]datalog.Term, ps.arity)
			for j := range headArgs {
				// Prefer body variables; a small chance of a fresh free
				// variable (universe-ranging) or a constant.
				switch g.rng.Intn(10) {
				case 0:
					headArgs[j] = datalog.C(g.rng.Intn(g.n))
				case 1:
					headArgs[j] = datalog.V("f")
				default:
					var bv []string
					for v := range bodyVars {
						bv = append(bv, v)
					}
					if len(bv) == 0 {
						headArgs[j] = datalog.V("f")
					} else {
						headArgs[j] = datalog.V(genVars[g.rng.Intn(len(genVars))])
					}
				}
			}
			rules = append(rules, datalog.NewRule(datalog.NewAtom(ps.name, headArgs...), body...))
		}
	}
	return &datalog.Program{Rules: rules, Goal: idbs[nIDB-1].name}
}

func (g *progGen) database() *datalog.Database {
	db := datalog.NewDatabase(g.n)
	nFacts := g.n + g.rng.Intn(3*g.n)
	for i := 0; i < nFacts; i++ {
		db.AddFact("E1", g.rng.Intn(g.n), g.rng.Intn(g.n))
	}
	for i := 0; i < nFacts/2+1; i++ {
		db.AddFact("E2", g.rng.Intn(g.n), g.rng.Intn(g.n))
	}
	for i := 0; i < g.n/2+1; i++ {
		db.AddFact("E3", g.rng.Intn(g.n))
	}
	return db
}

// chainProgram draws a random program that joins a single-use
// intermediate S on a bound column at the tail of an EDB fanout chain of
// length 2–4 (join position ≥ 2, often ≥ 3), so several upstream levels
// rebind between probes of S.
func chainProgram(rng *rand.Rand, n int) (*datalog.Program, *datalog.Database) {
	chain := 2 + rng.Intn(3) // EDB atoms above the join
	vars := []string{"x", "y", "z", "u", "v"}
	var body []interface{}
	body = append(body, datalog.NewAtom("A", datalog.V(vars[0])))
	for i := 1; i < chain; i++ {
		body = append(body, datalog.NewAtom(fmt.Sprintf("E%d", i), datalog.V(vars[i-1]), datalog.V(vars[i])))
	}
	// S joins the last chain variable; its second position is fresh.
	sv := vars[chain-1]
	body = append(body, datalog.NewAtom("S", datalog.V(sv), datalog.V("w")))
	if rng.Intn(3) == 0 {
		body = append(body, datalog.Constraint{Left: datalog.V("w"), Right: datalog.V(vars[0]), Neq: true})
	}
	headArgs := []datalog.Term{datalog.V(vars[0]), datalog.V(sv), datalog.V("w")}
	rules := []datalog.Rule{
		datalog.NewRule(datalog.NewAtom("S", datalog.V("a"), datalog.V("b")),
			datalog.NewAtom("G", datalog.V("a"), datalog.V("b"))),
		datalog.NewRule(datalog.NewAtom("Q", headArgs...), body...),
	}
	p := &datalog.Program{Rules: rules, Goal: "Q"}

	db := datalog.NewDatabase(n)
	roots := 2 + rng.Intn(4)
	for r := 0; r < roots; r++ {
		x := rng.Intn(n)
		db.AddFact("A", x)
		prev := []int{x}
		for i := 1; i < chain; i++ {
			var next []int
			for _, pv := range prev {
				fan := 1 + rng.Intn(3) // multi-row fanout above the join
				for f := 0; f < fan; f++ {
					nv := rng.Intn(n)
					db.AddFact(fmt.Sprintf("E%d", i), pv, nv)
					next = append(next, nv)
				}
			}
			prev = next
		}
		for _, pv := range prev {
			for f := 0; f < 1+rng.Intn(3); f++ {
				db.AddFact("G", pv, rng.Intn(n))
			}
		}
	}
	return p, db
}

// deepJoinProgram puts the single-use intermediate at join position 4,
// below a three-atom fanout chain.
func deepJoinProgram(t *testing.T, rng *rand.Rand) (*datalog.Program, *datalog.Database) {
	p, err := datalog.Parse(`
		S(u,v) :- G(u,v).
		Q(x,y,z,u,v) :- A(x), B(x,y), C(y,z), D(z,u), S(u,v).
		goal Q.`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := datalog.NewDatabase(200)
	for x := 0; x < 4; x++ {
		db.AddFact("A", x)
		for i := 0; i < 3; i++ {
			y := 4 + rng.Intn(8)
			db.AddFact("B", x, y)
			for j := 0; j < 2; j++ {
				z := 12 + rng.Intn(8)
				db.AddFact("C", y, z)
				u := 20 + rng.Intn(8)
				db.AddFact("D", z, u)
				db.AddFact("G", u, 28+rng.Intn(8))
			}
		}
	}
	return p, db
}

// refSorted evaluates pred materialized and returns sorted tuples.
func refSorted(t *testing.T, p *datalog.Program, db *datalog.Database, pred string, opt datalog.Options) []datalog.Tuple {
	t.Helper()
	res, err := datalog.EvalContext(context.Background(), p, db.Clone(), opt)
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	rel := res.IDB[pred]
	if rel == nil {
		return nil
	}
	return rel.Tuples()
}

// checkStreamed requires Open and Collect to answer pred with the
// materialized answers, and a limit of half of them with that many of them;
// it reports whether the slice has a recursive component (a step via
// "fixpoint").
func checkStreamed(t *testing.T, label string, p *datalog.Program, db *datalog.Database, pred string, opt Options) bool {
	t.Helper()
	want := refSorted(t, p, db, pred, datalog.DefaultOptions)
	s, err := Open(context.Background(), p, db.Clone(), pred, opt)
	if err != nil {
		t.Fatalf("%s pred %s: Open failed: %v\n%s", label, pred, err, p)
	}
	fix := false
	for _, rd := range s.Decisions().Rules {
		for _, sd := range rd.Steps {
			fix = fix || sd.Via == "fixpoint"
		}
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatalf("%s pred %s: stream failed: %v\n%s", label, pred, err, p)
	}
	if !sameTuples(got, want) {
		t.Fatalf("%s pred %s (fixpoint %v): answers differ\ngot  %v\nwant %v\nprogram:\n%s",
			label, pred, fix, got, want, p)
	}
	// Limit: a prefix-sized subset of the full answer set.
	if len(want) > 2 {
		lim := len(want) / 2
		optL := opt
		optL.Limit = lim
		gotL := collect(t, p, db.Clone(), pred, optL)
		if len(gotL) != lim {
			t.Fatalf("%s pred %s: limit %d returned %d", label, pred, lim, len(gotL))
		}
		set := map[string]bool{}
		for _, tu := range want {
			set[tu.String()] = true
		}
		for _, tu := range gotL {
			if !set[tu.String()] {
				t.Fatalf("%s pred %s: limited answer %v outside full set", label, pred, tu)
			}
		}
	}
	return fix
}

// recursiveInputs are the fixed recursive programs the equivalence suite
// runs beside its random ones, over progGen's EDBs: a streamed consumer H
// of a recursive producer T, and a streamed consumer Q of the mutually
// recursive A and B.
var recursiveInputs = []string{`
	T(x,y) :- E1(x,y).
	T(x,z) :- T(x,y), E1(y,z).
	H(x,z) :- T(x,y), E2(y,z).
	goal H.`, `
	A(x,y) :- E1(x,y).
	A(x,z) :- B(x,y), E1(y,z).
	B(x,z) :- A(x,y), E2(y,z).
	Q(x) :- A(x,y), E3(y).
	goal Q.`,
}

// plannedOptions plans p against db, as the service does.
func plannedOptions(p *datalog.Program, db *datalog.Database) Options {
	opt := Options{Eval: datalog.DefaultOptions}
	pl := plan.New(plan.Config{})
	if pp, _ := pl.PlanProgram(p, pl.CatalogFor(db)); pp != nil {
		opt.Plan = pp
	}
	return opt
}

func TestQuickStreamedEqualsMaterialized(t *testing.T) {
	const workloads = 140
	rng := rand.New(rand.NewSource(20260808))
	plain, fixpoint := 0, 0
	for w := 0; w < workloads+2*len(recursiveInputs); w++ {
		g := &progGen{rng: rng, n: 4 + rng.Intn(5)}
		p := g.program(w%3 == 2) // every third workload may be recursive
		if w >= workloads {
			p = mustParse(t, recursiveInputs[w%len(recursiveInputs)])
		}
		if err := datalog.Validate(p); err != nil {
			t.Fatalf("workload %d: generated invalid program: %v\n%s", w, err, p)
		}
		db := g.database()
		opt := Options{Eval: datalog.DefaultOptions}
		if w%3 == 1 {
			opt = plannedOptions(p, db) // the planned path
		}
		// Query every reachable predicate, not just the goal.
		for pred := range datalog.ReachableIDBs(p, p.Goal) {
			if checkStreamed(t, fmt.Sprintf("workload %d", w), p, db, pred, opt) {
				fixpoint++
			} else {
				plain++
			}
		}
	}
	if plain == 0 || fixpoint == 0 {
		t.Fatalf("suite did not cover both paths: plain=%d fixpoint=%d", plain, fixpoint)
	}

	// Chain workloads: the intermediate is spooled and probed deep in the
	// chain, and every chain streams.
	const chains = 60
	rng = rand.New(rand.NewSource(20260809))
	for w := 0; w <= chains; w++ {
		var p *datalog.Program
		var db *datalog.Database
		if w == chains {
			p, db = deepJoinProgram(t, rng)
		} else {
			p, db = chainProgram(rng, 6+rng.Intn(8))
		}
		opt := Options{Eval: datalog.DefaultOptions}
		if w%2 == 1 {
			opt = plannedOptions(p, db)
		}
		if checkStreamed(t, fmt.Sprintf("chain %d", w), p, db, "Q", opt) {
			t.Fatalf("chain %d: a non-recursive slice ran a fixpoint", w)
		}
	}
	t.Logf("workloads=%d plain=%d fixpoint=%d chains=%d", workloads, plain, fixpoint, chains+1)
}

// checkBoundGoal streams the seeded rewrite's answer predicate for goal
// with the goal as the answer filter — the answer-projection stage of a
// bound query — and requires magic.EvalGoal's answers.
func checkBoundGoal(t *testing.T, label string, p *datalog.Program, db *datalog.Database, goal datalog.Goal) {
	t.Helper()
	ref, err := magic.EvalGoal(context.Background(), p, db.Clone(), goal, magic.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: magic eval: %v", label, err)
	}
	rw, err := magic.NewRewrite(p, goal, nil)
	if err != nil {
		t.Fatalf("%s: rewrite: %v", label, err)
	}
	seeded, err := rw.Seeded(goal)
	if err != nil {
		t.Fatalf("%s: seed: %v", label, err)
	}
	got := collect(t, seeded, db.Clone(), rw.GoalPred, Options{Eval: datalog.DefaultOptions, Filter: &goal})
	if !sameTuples(got, ref.Answers) {
		t.Fatalf("%s: bound answers differ\ngoal %s\ngot  %v\nwant %v\nseeded:\n%s",
			label, goal, got, ref.Answers, seeded)
	}
}

func TestQuickBoundGoalsThroughMagic(t *testing.T) {
	const workloads = 80
	rng := rand.New(rand.NewSource(424242))
	for w := 0; w < workloads; w++ {
		g := &progGen{rng: rng, n: 4 + rng.Intn(5)}
		p := g.program(w%4 == 3)
		if err := datalog.Validate(p); err != nil {
			t.Fatalf("workload %d: invalid program: %v", w, err)
		}
		db := g.database()
		// Random bound goal over the program goal predicate.
		arity := p.Arities()[p.Goal]
		bindings := map[int]int{}
		for i := 0; i < arity; i++ {
			if rng.Intn(2) == 0 {
				bindings[i] = rng.Intn(g.n)
			}
		}
		if len(bindings) == 0 {
			bindings[0] = rng.Intn(g.n)
		}
		checkBoundGoal(t, fmt.Sprintf("workload %d", w), p, db, datalog.NewGoal(p.Goal, arity, bindings))
	}

	// Chain workloads, bound on the first column of one of their answers.
	const chains = 60
	rng = rand.New(rand.NewSource(20260809))
	checked := 0
	for w := 0; w <= chains; w++ {
		var p *datalog.Program
		var db *datalog.Database
		if w == chains {
			p, db = deepJoinProgram(t, rng)
		} else {
			p, db = chainProgram(rng, 6+rng.Intn(8))
		}
		want := refSorted(t, p, db, "Q", datalog.DefaultOptions)
		if len(want) == 0 {
			continue
		}
		pick := want[rng.Intn(len(want))]
		checkBoundGoal(t, fmt.Sprintf("chain %d", w), p, db, datalog.NewGoal("Q", len(pick), map[int]int{0: pick[0]}))
		checked++
	}
	if checked < chains/2 {
		t.Fatalf("only %d of %d chain workloads had answers to bind", checked, chains+1)
	}
}
