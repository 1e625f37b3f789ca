package plan

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/graph"
	"repro/internal/magic"
)

// Randomized planned≡textual equivalence: for random Datalog(≠)
// programs over random databases, evaluation through the planner must
// be observationally identical to textual-order evaluation — same IDB
// relations, same per-tuple first stages, same round count — across
// naive/semi-naive, indexed/unindexed and parallel variants. Per-rule
// Derivations are explicitly NOT compared: subsumption pruning and
// minimization legitimately remove duplicate derivations. This harness
// runs under -race via `make verify`.

type genConfig struct {
	n     int
	idb   []string
	edb   []string
	arity map[string]int
}

var genVars = []string{"x", "y", "z", "w", "v"}

func randTerm(rng *rand.Rand, cfg genConfig, constProb float64) datalog.Term {
	if rng.Float64() < constProb {
		return datalog.C(rng.Intn(cfg.n))
	}
	return datalog.V(genVars[rng.Intn(len(genVars))])
}

func randAtom(rng *rand.Rand, cfg genConfig, pred string, constProb float64) datalog.Atom {
	args := make([]datalog.Term, cfg.arity[pred])
	for i := range args {
		args[i] = randTerm(rng, cfg, constProb)
	}
	return datalog.NewAtom(pred, args...)
}

// randProgram generates a valid random program, deliberately including
// the shapes the planner rewrites: duplicate-ish same-head rules (food
// for subsumption pruning), repeated body atoms (food for
// minimization), constraints, recursion and non-range-restricted heads.
func randProgram(rng *rand.Rand) (*datalog.Program, genConfig) {
	cfg := genConfig{
		n:     3 + rng.Intn(3),
		idb:   []string{"P", "Q"},
		edb:   []string{"E", "F"},
		arity: map[string]int{"E": 2, "F": 1},
	}
	for _, p := range cfg.idb {
		cfg.arity[p] = 1 + rng.Intn(2)
	}
	nRules := 2 + rng.Intn(4)
	for {
		prog := &datalog.Program{Goal: cfg.idb[0]}
		for len(prog.Rules) < nRules {
			head := cfg.idb[rng.Intn(len(cfg.idb))]
			if len(prog.Rules) < len(cfg.idb) {
				head = cfg.idb[len(prog.Rules)]
			}
			r := datalog.Rule{Head: randAtom(rng, cfg, head, 0.15)}
			nAtoms := 1 + rng.Intn(3)
			for i := 0; i < nAtoms; i++ {
				var pred string
				if rng.Float64() < 0.6 {
					pred = cfg.edb[rng.Intn(len(cfg.edb))]
				} else {
					pred = cfg.idb[rng.Intn(len(cfg.idb))]
				}
				a := randAtom(rng, cfg, pred, 0.1)
				r.Body = append(r.Body, datalog.BodyItem{Atom: &a})
				if rng.Intn(6) == 0 {
					// Duplicate the atom verbatim: redundant, minimizable.
					dup := a
					r.Body = append(r.Body, datalog.BodyItem{Atom: &dup})
				}
			}
			for i := rng.Intn(2); i > 0; i-- {
				c := datalog.Constraint{
					Left:  randTerm(rng, cfg, 0.25),
					Right: randTerm(rng, cfg, 0.25),
					Neq:   rng.Intn(2) == 0,
				}
				r.Body = append(r.Body, datalog.BodyItem{Constraint: &c})
			}
			prog.Rules = append(prog.Rules, r)
			if rng.Intn(5) == 0 && len(prog.Rules) >= len(cfg.idb) {
				// Clone a rule with renamed variables: an equivalent twin the
				// prune pass should collapse.
				prog.Rules = append(prog.Rules, renameVars(prog.Rules[len(prog.Rules)-1]))
			}
		}
		if datalog.Validate(prog) == nil {
			return prog, cfg
		}
	}
}

// renameVars returns an alpha-renamed copy of r (every variable gets a
// "r" suffix): semantically identical, textually distinct.
func renameVars(r datalog.Rule) datalog.Rule {
	ren := func(t datalog.Term) datalog.Term {
		if t.IsVar() {
			return datalog.V(t.Var + "r")
		}
		return t
	}
	renAtom := func(a datalog.Atom) datalog.Atom {
		args := make([]datalog.Term, len(a.Args))
		for i, t := range a.Args {
			args[i] = ren(t)
		}
		return datalog.NewAtom(a.Pred, args...)
	}
	out := datalog.Rule{Head: renAtom(r.Head)}
	for _, b := range r.Body {
		if b.Atom != nil {
			a := renAtom(*b.Atom)
			out.Body = append(out.Body, datalog.BodyItem{Atom: &a})
		} else if b.Constraint != nil {
			c := datalog.Constraint{Left: ren(b.Constraint.Left), Right: ren(b.Constraint.Right), Neq: b.Constraint.Neq}
			out.Body = append(out.Body, datalog.BodyItem{Constraint: &c})
		}
	}
	return out
}

func randDatabase(rng *rand.Rand, cfg genConfig) *datalog.Database {
	db := datalog.NewDatabase(cfg.n)
	for _, p := range cfg.edb {
		db.EnsureRelation(p, cfg.arity[p])
		for i := 0; i < rng.Intn(3*cfg.n); i++ {
			t := make([]int, cfg.arity[p])
			for j := range t {
				t[j] = rng.Intn(cfg.n)
			}
			db.AddFact(p, t...)
		}
	}
	return db
}

// mustAgree fails unless the two results are observationally identical:
// same IDB tuples, same first stages, same round count.
func mustAgree(t *testing.T, trial int, prog *datalog.Program, a, b *datalog.Result, what string) {
	t.Helper()
	if a.Rounds != b.Rounds {
		t.Fatalf("trial %d (%s): rounds %d vs %d\nprogram:\n%s", trial, what, a.Rounds, b.Rounds, prog)
	}
	for name, rel := range a.IDB {
		if rel.Size() != b.IDB[name].Size() {
			t.Fatalf("trial %d (%s): %s has %d vs %d tuples\nprogram:\n%s",
				trial, what, name, rel.Size(), b.IDB[name].Size(), prog)
		}
		for _, tup := range rel.Tuples() {
			if !b.IDB[name].Has(tup) {
				t.Fatalf("trial %d (%s): %s missing %v\nprogram:\n%s", trial, what, name, tup, prog)
			}
			sa, _ := a.StageOf(name, tup)
			sb, ok := b.StageOf(name, tup)
			if !ok || sa != sb {
				t.Fatalf("trial %d (%s): %s%v stage %d vs %d\nprogram:\n%s",
					trial, what, name, tup, sa, sb, prog)
			}
		}
	}
}

func TestQuickPlannedEquivalentToTextual(t *testing.T) {
	const trials = 220
	rng := rand.New(rand.NewSource(20260808))
	pl := New(Config{}) // shared planner: the cache path is exercised too
	for trial := 0; trial < trials; trial++ {
		prog, cfg := randProgram(rng)
		db := randDatabase(rng, cfg)
		base := datalog.Options{SemiNaive: trial%2 == 0, UseIndexes: trial%3 != 0}
		textual, err := datalog.Eval(prog, db.Clone(), base)
		if err != nil {
			t.Fatalf("trial %d: textual: %v\n%s", trial, err, prog)
		}
		planned, err := datalog.Eval(prog, db.Clone(), base.WithPlanner(pl))
		if err != nil {
			t.Fatalf("trial %d: planned: %v\n%s", trial, err, prog)
		}
		mustAgree(t, trial, prog, textual, planned, "random")
		if trial%10 == 0 {
			// Repeat through the warm plan cache: the cached plan must agree too.
			again, err := datalog.Eval(prog, db.Clone(), base.WithPlanner(pl))
			if err != nil {
				t.Fatalf("trial %d: cached replan: %v\n%s", trial, err, prog)
			}
			mustAgree(t, trial, prog, textual, again, "cached")
		}
	}
	if c := pl.Counters(); c.Built == 0 || c.CacheHits == 0 {
		t.Fatalf("harness did not exercise both build and hit paths: %+v", c)
	}
}

func TestQuickPlannedNamedPrograms(t *testing.T) {
	progs := []*datalog.Program{
		datalog.TransitiveClosureProgram(),
		datalog.AvoidingPathProgram(),
		datalog.SameGenerationProgram(),
		datalog.PathSystemsProgram(),
		datalog.QklPrograms(2, 0),
	}
	pl := New(Config{})
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		prog := progs[trial%len(progs)]
		db := datalog.FromGraph(graph.Random(7, 0.3, rng))
		textual, err := datalog.Eval(prog, db.Clone(), datalog.DefaultOptions)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		planned, err := datalog.Eval(prog, db.Clone(), datalog.DefaultOptions.WithPlanner(pl))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mustAgree(t, trial, prog, textual, planned, "named")
	}
}

// TestQuickPlannedMagicGoals: goal-directed evaluation with a planner in
// the engine options — the path the service's bound queries take — must
// return the same answers as unplanned goal-directed evaluation.
func TestQuickPlannedMagicGoals(t *testing.T) {
	pl := New(Config{})
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		prog, cfg := randProgram(rng)
		db := randDatabase(rng, cfg)
		pred := cfg.idb[rng.Intn(len(cfg.idb))]
		bindings := map[int]int{}
		for i := 0; i < cfg.arity[pred]; i++ {
			if rng.Intn(2) == 0 {
				bindings[i] = rng.Intn(cfg.n)
			}
		}
		g := datalog.NewGoal(pred, cfg.arity[pred], bindings)

		plain := magic.DefaultOptions()
		res1, err := magic.EvalGoal(context.Background(), prog, db.Clone(), g, plain)
		if err != nil {
			t.Fatalf("trial %d: unplanned: %v\n%s", trial, err, prog)
		}
		withPlan := magic.DefaultOptions()
		withPlan.Eval = withPlan.Eval.WithPlanner(pl)
		res2, err := magic.EvalGoal(context.Background(), prog, db.Clone(), g, withPlan)
		if err != nil {
			t.Fatalf("trial %d: planned: %v\n%s", trial, err, prog)
		}
		if !sameTuples(res1.Answers, res2.Answers) {
			t.Fatalf("trial %d: planned magic answers %v, unplanned %v\nprogram:\n%sgoal %s",
				trial, res2.Answers, res1.Answers, prog, g)
		}
	}
}

func sameTuples(a, b []datalog.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(t datalog.Tuple) string {
		s := ""
		for _, x := range t {
			s += string(rune('A'+x)) + ","
		}
		return s
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = key(a[i])
		kb[i] = key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
