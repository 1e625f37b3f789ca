package datalog_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/plan"
)

// Maintained ≡ scratch over generated programs. The other maintenance
// suites run fixed programs; this one draws random Datalog(≠) programs —
// recursive, mutually recursive, with constants in heads and bodies,
// constraints and duplicate atoms — and random insert/delete schedules.
// The generator, its seed and its schedule are those of the sharded ≡
// single-node suite that commit 90f533b carried in internal/shard, which
// caught a single-engine bug (a rederivation probe pattern reused across
// heads with different constants).

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

// randProgram generates a valid random program biased toward the shapes
// that stress maintenance: recursion (IDB atoms in bodies), ground and
// single-variable atoms, constraints, and duplicate atoms (food for the
// planner's minimizer when a trial plans).
func randProgram(rng *rand.Rand) (*datalog.Program, genConfig) {
	cfg := genConfig{
		n:     3 + rng.Intn(4),
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
		}
		if datalog.Validate(prog) == nil {
			return prog, cfg
		}
	}
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

func randFact(rng *rand.Rand, cfg genConfig) datalog.Fact {
	pred := cfg.edb[rng.Intn(len(cfg.edb))]
	t := make(datalog.Tuple, cfg.arity[pred])
	for j := range t {
		t[j] = rng.Intn(cfg.n)
	}
	return datalog.Fact{Pred: pred, Tuple: t}
}

// TestGeneratedMaintainedMatchesScratch: after every step of every trial
// the Incremental view equals a from-scratch, textual-order Eval of the
// tracked EDB and LastDelta equals the diff of the views around the step.
// Every fourth trial maintains through the planner.
func TestGeneratedMaintainedMatchesScratch(t *testing.T) {
	const trials, steps = 60, 6
	rng := rand.New(rand.NewSource(20260808))
	pl := plan.New(plan.Config{})
	for trial := 0; trial < trials; trial++ {
		prog, cfg := randProgram(rng)
		db := randDatabase(rng, cfg)
		opts := datalog.DefaultOptions
		if trial%4 == 0 {
			opts = opts.WithPlanner(pl)
		}
		inc, err := datalog.NewIncremental(prog, db, opts)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, prog)
		}
		check := func(label string) {
			t.Helper()
			scratch, err := datalog.Eval(prog, db, datalog.DefaultOptions)
			if err != nil {
				t.Fatalf("%s: scratch: %v\n%s", label, err, prog)
			}
			if msg, ok := datalog.SameIDB(inc, scratch); !ok {
				t.Fatalf("%s: %s\n%s", label, msg, prog)
			}
		}
		check(fmt.Sprintf("trial %d: initial fixpoint", trial))
		for step := 0; step < steps; step++ {
			// Small batches; deletes mostly aim at facts that exist, so
			// over-deletion and rederivation do real work.
			var facts []datalog.Fact
			del := rng.Intn(3) == 0
			for k := 1 + rng.Intn(3); k > 0; k-- {
				f := randFact(rng, cfg)
				if del {
					if ts := db.Relation(f.Pred).TuplesUnordered(); len(ts) > 0 && rng.Intn(4) != 0 {
						f.Tuple = ts[rng.Intn(len(ts))]
					}
				}
				facts = append(facts, f)
			}
			label := fmt.Sprintf("trial %d step %d (delete=%v %v)", trial, step, del, facts)
			before := datalog.ViewTuples(inc)
			if del {
				err = inc.Delete(facts...)
			} else {
				err = inc.Insert(facts...)
			}
			if err != nil {
				t.Fatalf("%s: %v\n%s", label, err, prog)
			}
			for _, f := range facts {
				if del {
					db.Relation(f.Pred).Remove(f.Tuple)
				} else {
					db.Relation(f.Pred).Add(f.Tuple)
				}
			}
			check(label)
			wantAdd, wantRem := datalog.DiffViews(before, datalog.ViewTuples(inc))
			gotAdd, gotRem := datalog.DeltaStrings(inc.LastDelta())
			datalog.SameStringSets(t, label+" added", gotAdd, wantAdd)
			datalog.SameStringSets(t, label+" removed", gotRem, wantRem)
		}
	}
}

// TestGeneratedLedFormsMatchWritten: over the same generated programs, every
// rule fired at the fixpoint led by any one of its body atoms — that atom
// reading its whole relation, the rest of the body reordered behind it —
// emits exactly the heads the rule emits as written, with and without
// indexes. The shapes a leading atom can get wrong must all have been
// drawn: a constant or a repeated variable in the leading atom, a
// constraint over two atoms' variables (which reordering schedules at
// another level) and a head variable no atom binds.
func TestGeneratedLedFormsMatchWritten(t *testing.T) {
	const trials = 60
	rng := rand.New(rand.NewSource(20260808))
	shapes := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		prog, cfg := randProgram(rng)
		db := randDatabase(rng, cfg)
		for _, opts := range []datalog.Options{datalog.DefaultOptions, {SemiNaive: true}} {
			written, led, err := datalog.FireForms(prog, db, opts)
			if err != nil {
				t.Fatalf("trial %d: %v\n%s", trial, err, prog)
			}
			for ri, r := range prog.Rules {
				for ai, a := range r.Atoms() {
					if got, want := fmt.Sprint(led[ri][ai]), fmt.Sprint(written[ri]); got != want {
						t.Fatalf("trial %d (indexes=%v): rule %q led by atom %d emits\n%s\nas written\n%s\n%s",
							trial, opts.UseIndexes, r, ai, got, want, prog)
					}
					if len(written[ri]) == 0 || !opts.UseIndexes {
						continue
					}
					seen := map[string]bool{}
					for _, arg := range a.Args {
						switch {
						case !arg.IsVar():
							shapes["constant"]++
						case seen[arg.Var]:
							shapes["repeated variable"]++
						}
						seen[arg.Var] = true
					}
					for _, c := range r.Constraints() {
						if c.Left.IsVar() && c.Right.IsVar() && seen[c.Left.Var] != seen[c.Right.Var] {
							shapes["constraint across atoms"]++
						}
					}
				}
				inBody := map[string]bool{}
				for _, a := range r.Atoms() {
					for _, arg := range a.Args {
						inBody[arg.Var] = true
					}
				}
				for _, arg := range r.Head.Args {
					if arg.IsVar() && !inBody[arg.Var] && len(written[ri]) > 0 && opts.UseIndexes {
						shapes["free head variable"]++
					}
				}
			}
		}
	}
	for _, shape := range []string{"constant", "repeated variable", "constraint across atoms", "free head variable"} {
		if shapes[shape] == 0 {
			t.Errorf("no firing rule with a %s was drawn", shape)
		}
	}
	t.Logf("shapes among firing rules: %v", shapes)
}
