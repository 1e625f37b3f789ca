package magic

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datalog"
)

// Randomized equivalence: for random Datalog(≠) programs and random goal
// binding patterns, goal-directed evaluation must agree exactly with
// full saturation restricted to the goal and with the tabled top-down
// engine. This is the subsystem's main correctness harness; it runs
// under -race via `make verify`.

// genConfig fixes the predicate universe of one random program.
type genConfig struct {
	n      int            // universe size
	idb    []string       // IDB predicate names
	edb    []string       // EDB predicate names
	arity  map[string]int // per predicate
	nRules int
}

var genVars = []string{"x", "y", "z", "w"}

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

// randProgram builds a random valid program. Rules are not required to
// be range-restricted: head variables bound by no body atom range over
// the universe, and the pipeline must preserve that semantics.
func randProgram(rng *rand.Rand) (*datalog.Program, genConfig) {
	// Sizes are kept small enough that the tabled top-down engine (the
	// third oracle) stays tractable on mutually recursive samples; the
	// named-program tests cover wider arities and universes.
	cfg := genConfig{
		n:      3 + rng.Intn(2),
		idb:    []string{"P", "Q"},
		edb:    []string{"E", "F"},
		arity:  map[string]int{"E": 2, "F": 1},
		nRules: 2 + rng.Intn(4),
	}
	if rng.Intn(2) == 0 {
		cfg.idb = append(cfg.idb, "R")
	}
	for _, p := range cfg.idb {
		cfg.arity[p] = 1 + rng.Intn(2)
		if rng.Intn(8) == 0 {
			cfg.arity[p] = 3
		}
	}
	if cfg.nRules < len(cfg.idb) {
		cfg.nRules = len(cfg.idb) // every IDB needs a rule or goals on it are invalid
	}
	for {
		prog := &datalog.Program{Goal: cfg.idb[0]}
		for len(prog.Rules) < cfg.nRules {
			// The first len(idb) rules head each IDB once; extras are random.
			head := cfg.idb[rng.Intn(len(cfg.idb))]
			if len(prog.Rules) < len(cfg.idb) {
				head = cfg.idb[len(prog.Rules)]
			}
			r := datalog.Rule{Head: randAtom(rng, cfg, head, 0.15)}
			nAtoms := 1 + rng.Intn(2)
			for i := 0; i < nAtoms; i++ {
				var pred string
				if rng.Float64() < 0.55 {
					pred = cfg.edb[rng.Intn(len(cfg.edb))]
				} else {
					pred = cfg.idb[rng.Intn(len(cfg.idb))]
				}
				a := randAtom(rng, cfg, pred, 0.1)
				r.Body = append(r.Body, datalog.BodyItem{Atom: &a})
			}
			for i := rng.Intn(3); i > 0; i-- {
				c := datalog.Constraint{
					Left:  randTerm(rng, cfg, 0.25),
					Right: randTerm(rng, cfg, 0.25),
					Neq:   rng.Intn(2) == 0,
				}
				r.Body = append(r.Body, datalog.BodyItem{Constraint: &c})
			}
			prog.Rules = append(prog.Rules, r)
		}
		// Validate can reject a sample (e.g. an always-false ground
		// constraint was generated) — just resample.
		if datalog.Validate(prog) == nil {
			return prog, cfg
		}
	}
}

func randDatabase(rng *rand.Rand, cfg genConfig) *datalog.Database {
	db := datalog.NewDatabase(cfg.n)
	for _, p := range cfg.edb {
		db.EnsureRelation(p, cfg.arity[p])
		for i := 0; i < 1+rng.Intn(2*cfg.n); i++ {
			t := make([]int, cfg.arity[p])
			for j := range t {
				t[j] = rng.Intn(cfg.n)
			}
			db.AddFact(p, t...)
		}
	}
	return db
}

func randGoal(rng *rand.Rand, cfg genConfig) datalog.Goal {
	pred := cfg.idb[rng.Intn(len(cfg.idb))]
	ar := cfg.arity[pred]
	bindings := map[int]int{}
	for i := 0; i < ar; i++ {
		if rng.Intn(2) == 0 {
			bindings[i] = rng.Intn(cfg.n)
		}
	}
	return datalog.NewGoal(pred, ar, bindings)
}

func TestQuickEvalGoalEquivalence(t *testing.T) {
	const trials = 230
	rng := rand.New(rand.NewSource(20260806))
	sips := []SIP{BoundFirstSIP{}, LeftToRightSIP{}}
	topDownSkipped := 0
	for trial := 0; trial < trials; trial++ {
		prog, cfg := randProgram(rng)
		db := randDatabase(rng, cfg)
		g := randGoal(rng, cfg)
		want := filterEval(t, prog, db, g)

		opt := DefaultOptions()
		opt.SIP = sips[trial%len(sips)]
		mg, err := EvalGoal(context.Background(), prog, db, g, opt)
		if err != nil {
			t.Fatalf("trial %d: EvalGoal: %v\nprogram:\n%sgoal %s^%s", trial, err, prog, g.Pred, AdornmentOf(g))
		}
		if !sameTuples(mg.Answers, want) {
			t.Fatalf("trial %d (%s): magic %v, saturation %v\nprogram:\n%sgoal %s^%s %v\nrewritten:\n%s",
				trial, opt.SIP.Name(), mg.Answers, want, prog, g.Pred, AdornmentOf(g), g.Value, mg.Rewrite.Program)
		}
		if err := datalog.Validate(mg.Rewrite.Program); err != nil {
			t.Fatalf("trial %d: seedless rewrite invalid: %v\n%s", trial, err, mg.Rewrite.Program)
		}
		// Third oracle: the tabled top-down engine. A few adversarial
		// mutually-recursive samples make it pathologically slow (its
		// local-fixpoint restarts, not a magic bug), so each trial gets a
		// time budget; skips are counted and bounded.
		td, tdErr := askTopDownBudget(t, prog, db, g)
		if tdErr != nil {
			topDownSkipped++
			continue
		}
		if !sameTuples(td, want) {
			t.Fatalf("trial %d: top-down %v, saturation %v\nprogram:\n%sgoal %s^%s %v",
				trial, td, want, prog, g.Pred, AdornmentOf(g), g.Value)
		}
	}
	if topDownSkipped > trials/10 {
		t.Fatalf("top-down oracle timed out on %d/%d trials; generator too adversarial", topDownSkipped, trials)
	}
	if trials-topDownSkipped < 200 {
		t.Fatalf("only %d three-way comparisons completed, want >= 200", trials-topDownSkipped)
	}
}

// askTopDownBudget runs TopDown.AskContext under a per-trial deadline.
func askTopDownBudget(t *testing.T, p *datalog.Program, db *datalog.Database, g datalog.Goal) ([]datalog.Tuple, error) {
	t.Helper()
	td, err := datalog.NewTopDown(p, db)
	if err != nil {
		t.Fatalf("NewTopDown: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := td.AskContext(ctx, g)
	if err != nil {
		return nil, err
	}
	datalog.SortTuples(out)
	return out, nil
}

// TestQuickRewriteDeterministic: the rewritten program's printed form is
// a pure function of (program, goal pattern, SIP) — required for the
// service's (program hash, adornment) rewrite cache to be sound.
func TestQuickRewriteDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		prog, cfg := randProgram(rng)
		g := randGoal(rng, cfg)
		rw1, err := NewRewrite(prog, g, BoundFirstSIP{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rw2, err := NewRewrite(datalog.MustParse(prog.String()), g, BoundFirstSIP{})
		if err != nil {
			t.Fatalf("trial %d reparse: %v", trial, err)
		}
		if rw1.Program.String() != rw2.Program.String() {
			t.Fatalf("trial %d: rewrite not deterministic across reparse:\n%s\nvs\n%s",
				trial, rw1.Program, rw2.Program)
		}
	}
}

// TestQuickSeededMatchesPattern: Seeded rejects a goal whose pattern
// differs from the rewrite's adornment.
func TestQuickSeededMatchesPattern(t *testing.T) {
	p := datalog.TransitiveClosureProgram()
	rw, err := NewRewrite(p, datalog.NewGoal("S", 2, map[int]int{0: 0}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Seeded(datalog.NewGoal("S", 2, map[int]int{1: 0})); err == nil {
		t.Fatal("expected adornment mismatch error")
	}
	if _, err := rw.Seeded(datalog.NewGoal("S", 2, map[int]int{0: 3})); err != nil {
		t.Fatalf("same-pattern different-value seed should work: %v", err)
	}
}
