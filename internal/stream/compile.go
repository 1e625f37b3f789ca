package stream

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/plan"
)

// Compilation for the streaming executor. Every reachable rule outside the
// recursive component compiles to internal/datalog's own compiled form
// (datalog.CompileJoin), so both executors join a body at the same levels
// with the same probe masks; atoms are resolved to relations or producer
// pipelines when the operator tree is built, not at compile time. The rules
// of the recursive component are not compiled here at all: they are one
// program the evaluator's fixpoint runs (builder.fixpoint).

// Execution-mode constants for StepDecision.Exec.
const (
	ExecStream      = "stream"
	ExecMaterialize = "materialize"
)

// StepDecision is the stream/materialize choice for one join step of one
// rule, aligned with the planner's AtomStep list for that rule.
type StepDecision struct {
	// Pred is the predicate probed or streamed at this step.
	Pred string `json:"pred"`
	// Exec is ExecStream (the step pulls straight from an inlined
	// producer pipeline) or ExecMaterialize (the step scans or probes a
	// stored relation — an EDB, a spooled intermediate or a fixpoint
	// relation — or belongs to a rule the evaluator's fixpoint runs).
	Exec string `json:"exec"`
	// Via details the operator: "scan", "probe" or "inline", or "fixpoint"
	// for every step of a rule in the recursive component.
	Via string `json:"via"`
	// EstBufferRows estimates the rows this step forces the executor to
	// hold: a spooled intermediate's or fixpoint relation's size, an
	// inlined producer's distinct-key set. Zero for EDB scans/probes, for
	// the fixpoint's own steps and when no plan estimates are available.
	EstBufferRows float64 `json:"est_buffer_rows"`
}

// RuleDecision carries the per-step decisions of one rule; Steps is nil
// for rules outside the slice reachable from the query predicate.
type RuleDecision struct {
	Steps []StepDecision `json:"steps,omitempty"`
}

// Decisions is the compile-time summary of a streaming query: what
// /v1/explain renders next to the join plan.
type Decisions struct {
	// Target is the query predicate.
	Target string `json:"target"`
	// Rules aligns index-for-index with the (planned) program's rules.
	Rules []RuleDecision `json:"rules,omitempty"`
	// EstPeakBufferRows is the estimated peak buffered-row footprint of
	// the whole stream: fixpoint relations, spooled intermediates and
	// distinct-key sets combined (0 without plan estimates).
	EstPeakBufferRows float64 `json:"est_peak_buffer_rows"`
}

// analysis is the compile-time shape of one streaming query.
type analysis struct {
	eff     *datalog.Program
	pp      *plan.ProgramPlan // nil without a plan: no buffer estimates
	target  string
	arity   map[string]int
	reach   map[string]bool
	ruleIdx map[string][]int // pred -> rule indices in eff.Rules, outside fix
	joins   []datalog.Join   // aligned with eff.Rules (zero for unreachable and fixpoint rules)
	// inline holds the intermediates whose one consumer pulls straight
	// from the producer pipeline; every other intermediate is spooled.
	inline map[string]bool
	// fix is the recursive component: every reachable predicate on a
	// dependency cycle and every IDB one of those depends on. fixProg holds
	// the rules whose heads are in fix, which the evaluator's fixpoint runs
	// (nil when the slice is not recursive).
	fix     map[string]bool
	fixProg *datalog.Program
	// copy produces a target in fix by scanning its fixpoint relation: the
	// rule T(x0,…) :- T(x0,…), compiled like any other.
	copy datalog.Join
}

// analyze computes the reachable slice and its recursive component, compiles
// the reachable rules outside that component and decides, from the
// program's shape alone, which intermediates are inlined: one consumed
// exactly once, as its consumer's first atom. The plan's row estimates,
// when pp is non-nil, only feed the buffer estimates of the Decisions.
func analyze(eff *datalog.Program, pred string, pp *plan.ProgramPlan) (*analysis, error) {
	if !eff.IDBs()[pred] {
		return nil, fmt.Errorf("stream: predicate %s is not an IDB of the program", pred)
	}
	reach := datalog.ReachableIDBs(eff, pred)
	an := &analysis{
		eff:     eff,
		pp:      pp,
		target:  pred,
		arity:   eff.Arities(),
		reach:   reach,
		ruleIdx: map[string][]int{},
		joins:   make([]datalog.Join, len(eff.Rules)),
		inline:  map[string]bool{},
		fix:     map[string]bool{},
	}
	for p := range datalog.RecursiveIDBs(eff) {
		an.fix[p] = reach[p]
	}
	// Close the component downward: every IDB one of its rules reads.
	for grew := true; grew; {
		grew = false
		for _, r := range eff.Rules {
			if !an.fix[r.Head.Pred] {
				continue
			}
			for _, b := range r.Body {
				if b.Atom != nil && reach[b.Atom.Pred] && !an.fix[b.Atom.Pred] {
					an.fix[b.Atom.Pred], grew = true, true
				}
			}
		}
	}
	uses := map[string]int{}
	var fixRules []datalog.Rule
	for ri, r := range eff.Rules {
		if an.fix[r.Head.Pred] {
			fixRules = append(fixRules, r)
			continue
		}
		if !reach[r.Head.Pred] {
			continue
		}
		an.ruleIdx[r.Head.Pred] = append(an.ruleIdx[r.Head.Pred], ri)
		an.joins[ri] = datalog.CompileJoin(r)
		for ai, a := range r.Atoms() {
			if reach[a.Pred] && !an.fix[a.Pred] {
				uses[a.Pred]++
				if ai == 0 {
					an.inline[a.Pred] = true
				}
			}
		}
	}
	for p := range an.inline {
		if uses[p] != 1 {
			delete(an.inline, p)
		}
	}
	if fixRules != nil {
		an.fixProg = &datalog.Program{Rules: fixRules}
	}
	if an.fix[pred] {
		args := make([]datalog.Term, an.arity[pred])
		for i := range args {
			args[i] = datalog.V(fmt.Sprintf("x%d", i))
		}
		an.copy = datalog.CompileJoin(datalog.NewRule(datalog.NewAtom(pred, args...), datalog.NewAtom(pred, args...)))
	}
	return an, nil
}

// decisions renders the analysis as the Decisions /v1/explain shows. Only
// an explain asks, so a query does not build them.
func (an *analysis) decisions() *Decisions {
	estRows := func(p string) float64 {
		if an.pp == nil {
			return 0
		}
		return an.pp.EstPredRows(p)
	}
	dec := &Decisions{Target: an.target, Rules: make([]RuleDecision, len(an.eff.Rules))}
	spooled := map[string]bool{}
	peak := estRows(an.target) // the target's distinct-key set
	for _, r := range an.eff.Rules {
		if an.fix[r.Head.Pred] && !spooled[r.Head.Pred] { // the fixpoint's relations
			spooled[r.Head.Pred] = true
			peak += estRows(r.Head.Pred)
		}
	}
	for ri, r := range an.eff.Rules {
		if !an.reach[r.Head.Pred] {
			continue
		}
		atoms := r.Atoms()
		steps := make([]StepDecision, len(atoms))
		for ai, a := range atoms {
			sd := StepDecision{Pred: a.Pred, Exec: ExecMaterialize, Via: "probe"}
			if ai == 0 {
				sd.Via = "scan"
			}
			switch {
			case an.fix[r.Head.Pred]:
				sd.Via = "fixpoint"
			case an.inline[a.Pred]:
				sd.Exec, sd.Via = ExecStream, "inline"
				sd.EstBufferRows = estRows(a.Pred) // the producer's distinct-key set
				peak += sd.EstBufferRows
			case an.reach[a.Pred]:
				sd.EstBufferRows = estRows(a.Pred) // the spool, shared by its consumers
				if !spooled[a.Pred] {
					spooled[a.Pred] = true
					peak += sd.EstBufferRows
				}
			}
			steps[ai] = sd
		}
		dec.Rules[ri] = RuleDecision{Steps: steps}
	}
	dec.EstPeakBufferRows = peak
	return dec
}

// Explain returns the stream/materialize decisions Open would make for
// pred without executing anything. pp, when non-nil, supplies both the
// planned rule order and the row estimates (pass the same plan /v1/explain
// renders so the step lists align).
func Explain(p *datalog.Program, pred string, pp *plan.ProgramPlan) (*Decisions, error) {
	if err := datalog.Validate(p); err != nil {
		return nil, err
	}
	eff := p
	if pp != nil && len(pp.PlannedRules()) > 0 {
		eff = &datalog.Program{Rules: pp.PlannedRules(), Goal: p.Goal}
	}
	an, err := analyze(eff, pred, pp)
	if err != nil {
		return nil, err
	}
	return an.decisions(), nil
}
