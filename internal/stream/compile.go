package stream

import (
	"fmt"

	"repro/internal/datalog"
)

// Compilation for the streaming executor. Every reachable rule outside the
// recursive component compiles to internal/datalog's own compiled form
// (datalog.CompileJoin), so both executors join a body in the same order,
// at the same levels, with the same probe masks; atoms are resolved to
// relations or producer pipelines when the operator tree is built, not at
// compile time. The rules of the recursive component are not compiled here
// at all: they are one program the evaluator's fixpoint runs
// (builder.fixpoint).

// Execution-mode constants for StepDecision.Exec.
const (
	ExecStream      = "stream"
	ExecMaterialize = "materialize"
)

// StepDecision is the stream/materialize choice for one join step of one
// rule, in the rule's compiled join order.
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
}

// analysis is the compile-time shape of one streaming query.
type analysis struct {
	eff     *datalog.Program
	db      *datalog.Database
	target  string
	arity   map[string]int
	idb     map[string]bool
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
// the reachable rules outside that component over db and decides, from the
// compiled orders alone, which intermediates are inlined: one consumed
// exactly once, as its consumer's first atom.
func analyze(eff *datalog.Program, db *datalog.Database, pred string) (*analysis, error) {
	idb := eff.IDBs()
	if !idb[pred] {
		return nil, fmt.Errorf("stream: predicate %s is not an IDB of the program", pred)
	}
	reach := datalog.ReachableIDBs(eff, pred)
	an := &analysis{
		eff:     eff,
		db:      db,
		target:  pred,
		arity:   eff.Arities(),
		idb:     idb,
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
		j := datalog.CompileJoin(r, idb, db)
		an.joins[ri] = j
		for ai := range j.Atoms() {
			if p := j.Pred(ai); reach[p] && !an.fix[p] {
				uses[p]++
				if ai == 0 {
					an.inline[p] = true
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
		an.copy = datalog.CompileJoin(datalog.NewRule(datalog.NewAtom(pred, args...), datalog.NewAtom(pred, args...)), nil, nil)
	}
	return an, nil
}

// decisions renders the analysis as the Decisions /v1/explain shows, each
// rule's steps in its compiled order: a fixpoint rule's as the evaluator
// compiles it over the same database. Only an explain asks, so a query does
// not build them.
func (an *analysis) decisions() *Decisions {
	dec := &Decisions{Target: an.target, Rules: make([]RuleDecision, len(an.eff.Rules))}
	for ri, r := range an.eff.Rules {
		if !an.reach[r.Head.Pred] {
			continue
		}
		j := an.joins[ri]
		if an.fix[r.Head.Pred] {
			j = datalog.CompileJoin(r, an.idb, an.db)
		}
		steps := make([]StepDecision, j.Atoms())
		for ai := range steps {
			p := j.Pred(ai)
			sd := StepDecision{Pred: p, Exec: ExecMaterialize, Via: "probe"}
			switch {
			case an.fix[r.Head.Pred]:
				sd.Via = "fixpoint"
			case an.inline[p]:
				sd.Exec, sd.Via = ExecStream, "inline"
			case ai == 0:
				sd.Via = "scan"
			}
			steps[ai] = sd
		}
		dec.Rules[ri] = RuleDecision{Steps: steps}
	}
	return dec
}

// Explain returns the stream/materialize decisions Open would make for
// pred over db without executing anything.
func Explain(p *datalog.Program, db *datalog.Database, pred string) (*Decisions, error) {
	if err := datalog.Validate(p); err != nil {
		return nil, err
	}
	an, err := analyze(p, db, pred)
	if err != nil {
		return nil, err
	}
	return an.decisions(), nil
}
