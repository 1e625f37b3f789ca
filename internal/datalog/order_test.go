package datalog_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/graph"
	"repro/internal/magic"
)

// Join order is the engine's choice, not the program's: a Datalog(≠) rule
// body is an existential conjunction, and the least fixpoint, the stage
// each tuple first appears at, the number of rounds and the number of
// derivations do not depend on the order its atoms and constraints are
// written in. The compiler orders every form by bound columns and breaks
// ties by the order a rule arrives in, so permuting a body can change the
// order a rule is joined in — and must change nothing observable.

// permuted returns p with every rule body shuffled: atoms and constraints
// alike, rules and heads as they stand.
func permuted(rng *rand.Rand, p *datalog.Program) *datalog.Program {
	out := &datalog.Program{Goal: p.Goal}
	for _, r := range p.Rules {
		body := append([]datalog.BodyItem(nil), r.Body...)
		rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
		out.Rules = append(out.Rules, datalog.Rule{Head: r.Head, Body: body})
	}
	return out
}

// sameRun fails unless two evaluations are observationally identical:
// rounds, derivations (in total and per rule, new ones included), every
// IDB tuple and its first stage.
func sameRun(t *testing.T, what string, p *datalog.Program, a, b *datalog.Result) {
	t.Helper()
	if a.Rounds != b.Rounds || a.Derivations != b.Derivations {
		t.Fatalf("%s: rounds %d vs %d, derivations %d vs %d\n%s",
			what, a.Rounds, b.Rounds, a.Derivations, b.Derivations, p)
	}
	for ri := range a.Stats.Rules {
		ra, rb := a.Stats.Rules[ri], b.Stats.Rules[ri]
		if ra.Derived != rb.Derived || ra.New != rb.New {
			t.Fatalf("%s: rule %d derived %d (%d new) vs %d (%d new)\n%s",
				what, ri, ra.Derived, ra.New, rb.Derived, rb.New, p)
		}
	}
	for name, rel := range a.IDB {
		if rel.Size() != b.IDB[name].Size() {
			t.Fatalf("%s: %s has %d vs %d tuples\n%s", what, name, rel.Size(), b.IDB[name].Size(), p)
		}
		for _, tup := range rel.Tuples() {
			sa, _ := a.StageOf(name, tup)
			sb, ok := b.StageOf(name, tup)
			if !ok || sa != sb {
				t.Fatalf("%s: %s%v at stage %d vs %d (present %t)\n%s", what, name, tup, sa, sb, ok, p)
			}
		}
	}
}

// TestJoinOrderIndependence evaluates generated programs, the paper's named
// programs, the served programs (tc, hop2 and an adversarially written
// join) and the seeded magic rewrites bound reads evaluate, each as written
// and with its rule bodies permuted three times, naive and semi-naive, with
// and without indexes and provenance.
func TestJoinOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	type workload struct {
		name string
		prog *datalog.Program
		db   *datalog.Database
	}
	var ws []workload
	for i := 0; i < 160; i++ {
		prog, cfg := randProgram(rng)
		ws = append(ws, workload{fmt.Sprintf("generated %d", i), prog, randDatabase(rng, cfg)})
	}
	named := []*datalog.Program{
		datalog.TransitiveClosureProgram(),
		datalog.AvoidingPathProgram(),
		datalog.SameGenerationProgram(),
		datalog.PathSystemsProgram(),
		datalog.QklPrograms(2, 0),
	}
	for i, prog := range named {
		ws = append(ws, workload{fmt.Sprintf("named %d", i), prog, datalog.FromGraph(graph.Random(7, 0.3, rng))})
	}
	served := map[string]string{
		"tc":   "S(x,y) :- E(x,y). S(x,y) :- E(x,z), S(z,y). goal S.",
		"hop2": "J(x,y) :- E(x,z), E(z,y), x != y. goal J.",
		"adv":  "P(x,w) :- E(x,y), E(y,z), R(z,w). goal P.",
	}
	for name, src := range served {
		prog, err := datalog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		db := datalog.FromGraph(graph.Random(24, 0.15, rng))
		db.EnsureRelation("R", 2)
		db.AddFact("R", 0, 1)
		db.AddFact("R", 2, 3)
		ws = append(ws, workload{name, prog, db})
		g := datalog.NewGoal(prog.Goal, 2, map[int]int{0: rng.Intn(24)})
		rw, err := magic.NewRewrite(prog, g, magic.BoundFirstSIP{})
		if err != nil {
			t.Fatal(err)
		}
		seeded, err := rw.Seeded(g)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, workload{name + " " + g.String(), seeded, db})
	}
	for i := 0; i < 40; i++ {
		prog, cfg := randProgram(rng)
		pred := cfg.idb[rng.Intn(len(cfg.idb))]
		bound := map[int]int{}
		for k := 0; k < cfg.arity[pred]; k++ {
			if rng.Intn(2) == 0 {
				bound[k] = rng.Intn(cfg.n)
			}
		}
		g := datalog.NewGoal(pred, cfg.arity[pred], bound)
		rw, err := magic.NewRewrite(prog, g, magic.BoundFirstSIP{})
		if err != nil {
			continue
		}
		seeded, err := rw.Seeded(g)
		if err != nil {
			continue
		}
		ws = append(ws, workload{fmt.Sprintf("generated %d %s", i, g), seeded, randDatabase(rng, cfg)})
	}
	variants := []datalog.Options{
		datalog.DefaultOptions,
		datalog.DefaultOptions.WithSemiNaive(false),
		datalog.DefaultOptions.WithIndexes(false),
		datalog.DefaultOptions.WithProvenance(true),
	}
	for wi, w := range ws {
		opts := variants[wi%len(variants)]
		want, err := datalog.Eval(w.prog, w.db, opts)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, w.prog)
		}
		for k := 0; k < 3; k++ {
			perm := permuted(rng, w.prog)
			got, err := datalog.Eval(perm, w.db, opts)
			if err != nil {
				t.Fatalf("%s, permutation %d: %v\n%s", w.name, k, err, perm)
			}
			sameRun(t, fmt.Sprintf("%s, permutation %d", w.name, k), perm, want, got)
		}
	}
}
