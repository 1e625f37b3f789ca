package magic

import (
	"context"

	"repro/internal/datalog"
)

// GoalStats summarizes one goal-directed evaluation, splitting the
// rewritten program's fact counts by predicate kind so demand-set sizes
// are observable (the service feeds DemandFacts into its metrics
// histogram).
type GoalStats struct {
	Adornment string `json:"adornment"`
	SIP       string `json:"sip"`
	// RewrittenRules counts the rules of the seeded program.
	RewrittenRules int `json:"rewritten_rules"`
	// MagicPreds/SupPreds/AnswerPreds count predicates by kind.
	MagicPreds  int `json:"magic_preds"`
	SupPreds    int `json:"sup_preds"`
	AnswerPreds int `json:"answer_preds"`
	// DemandFacts is the total size of the magic relations — the demand
	// set; SupFacts and AnswerFacts likewise for the other kinds. Their
	// sum is every fact the goal-directed run derived, the number to
	// hold against full saturation.
	DemandFacts int `json:"demand_facts"`
	SupFacts    int `json:"sup_facts"`
	AnswerFacts int `json:"answer_facts"`
	// Answers counts tuples matching the goal bindings.
	Answers int `json:"answers"`
	// Rounds and Derivations mirror the engine's counters for the run.
	Rounds      int `json:"rounds"`
	Derivations int `json:"derivations"`
}

// GoalResult is the outcome of a goal-directed evaluation.
type GoalResult struct {
	// Answers are the goal-matching tuples of the goal predicate, in
	// lexicographic order.
	Answers []datalog.Tuple
	// Rewrite is the pipeline output the run used (shared when the
	// caller evaluated a cached rewrite).
	Rewrite *Rewrite
	// Result is the engine result on the seeded rewritten program; its
	// IDB holds the magic/supplementary/adorned relations and its Stats
	// the per-rule counters.
	Result *datalog.Result
	Stats  GoalStats
}

// EvalGoal rewrites the program for the goal's binding pattern, seeds
// the demand, evaluates bottom-up, and projects the answers. On context
// cancellation it returns the partial result alongside the error, like
// datalog.EvalContext.
func EvalGoal(ctx context.Context, p *datalog.Program, db *datalog.Database, g datalog.Goal, opt Options) (*GoalResult, error) {
	rw, err := NewRewrite(p, g, opt.sip())
	if err != nil {
		return nil, err
	}
	return EvalRewritten(ctx, rw, db, g, opt.Eval)
}

// EvalRewritten evaluates an existing rewrite against a database for a
// concrete goal (which must carry the rewrite's predicate and
// adornment). This is the cache-friendly half of EvalGoal.
func EvalRewritten(ctx context.Context, rw *Rewrite, db *datalog.Database, g datalog.Goal, opt datalog.Options) (*GoalResult, error) {
	if err := validateGoal(rw.Source, g, db.N); err != nil {
		return nil, err
	}
	seeded, err := rw.Seeded(g)
	if err != nil {
		return nil, err
	}
	res, evalErr := datalog.EvalContext(ctx, seeded, db, opt)
	if res == nil {
		return nil, evalErr
	}
	out := &GoalResult{Rewrite: rw, Result: res}
	out.Stats = GoalStats{
		Adornment:      rw.Adornment,
		SIP:            rw.SIPName,
		RewrittenRules: len(seeded.Rules),
		Rounds:         res.Rounds,
		Derivations:    res.Derivations,
	}
	for name, kind := range rw.Kinds {
		switch kind {
		case KindMagic:
			out.Stats.MagicPreds++
		case KindSupplementary:
			out.Stats.SupPreds++
		case KindAnswer:
			out.Stats.AnswerPreds++
		}
		rel := res.IDB[name]
		if rel == nil {
			continue
		}
		switch kind {
		case KindMagic:
			out.Stats.DemandFacts += rel.Size()
		case KindSupplementary:
			out.Stats.SupFacts += rel.Size()
		case KindAnswer:
			out.Stats.AnswerFacts += rel.Size()
		}
	}
	if rel := res.IDB[rw.GoalPred]; rel != nil {
		for _, t := range rel.Tuples() {
			if g.Matches(t) {
				out.Answers = append(out.Answers, t)
			}
		}
		datalog.SortTuples(out.Answers)
	}
	out.Stats.Answers = len(out.Answers)
	return out, evalErr
}
