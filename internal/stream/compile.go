package stream

import (
	"errors"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/plan"
)

// Compilation for the streaming executor. Every reachable rule compiles to
// internal/datalog's own compiled form (datalog.CompileJoin), so both
// executors join a body at the same levels with the same probe masks;
// atoms are resolved to relations or producer pipelines when the operator
// tree is built, not at compile time.

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
	// stored relation — an EDB or a spooled intermediate).
	Exec string `json:"exec"`
	// Via details the operator: "scan", "probe" or "inline".
	Via string `json:"via"`
	// EstBufferRows estimates the rows this step forces the executor to
	// hold: a spooled intermediate's size, an inlined producer's
	// distinct-key set. Zero for EDB scans/probes and when no plan
	// estimates are available.
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
	// Streaming is false when the reachable slice is recursive and
	// evaluation must fall back to semi-naive materialization (which
	// still streams within each rule firing).
	Streaming bool `json:"streaming"`
	// Reason explains a false Streaming ("recursive").
	Reason string `json:"reason,omitempty"`
	// Target is the query predicate.
	Target string `json:"target"`
	// Rules aligns index-for-index with the (planned) program's rules.
	Rules []RuleDecision `json:"rules,omitempty"`
	// EstPeakBufferRows is the estimated peak buffered-row footprint of
	// the whole stream: spooled intermediates and distinct-key sets
	// combined (0 without plan estimates).
	EstPeakBufferRows float64 `json:"est_peak_buffer_rows"`
}

// analysis is the compile-time shape of one streaming query.
type analysis struct {
	eff     *datalog.Program
	reach   map[string]bool
	ruleIdx map[string][]int // pred -> rule indices in eff.Rules
	joins   []datalog.Join   // aligned with eff.Rules (zero for unreachable)
	// inline holds the intermediates whose one consumer pulls straight
	// from the producer pipeline; every other intermediate is spooled.
	inline map[string]bool
	dec    *Decisions
}

// analyze computes the reachable slice, rejects recursion, compiles the
// reachable rules and decides, from the program's shape alone, which
// intermediates are inlined: one consumed exactly once, as its consumer's
// first atom. The plan's row estimates, when pp is non-nil, only feed the
// buffer estimates of the Decisions.
func analyze(eff *datalog.Program, pred string, pp *plan.ProgramPlan) (*analysis, error) {
	if !eff.IDBs()[pred] {
		return nil, fmt.Errorf("stream: predicate %s is not an IDB of the program", pred)
	}
	reach := datalog.ReachableIDBs(eff, pred)
	rec := datalog.RecursiveIDBs(eff)
	for p := range reach {
		if rec[p] {
			return nil, fmt.Errorf("%w (predicate %s)", ErrRecursive, p)
		}
	}
	an := &analysis{
		eff:     eff,
		reach:   reach,
		ruleIdx: map[string][]int{},
		joins:   make([]datalog.Join, len(eff.Rules)),
		inline:  map[string]bool{},
	}
	uses := map[string]int{}
	for ri, r := range eff.Rules {
		if !reach[r.Head.Pred] {
			continue
		}
		an.ruleIdx[r.Head.Pred] = append(an.ruleIdx[r.Head.Pred], ri)
		an.joins[ri] = datalog.CompileJoin(r)
		for ai, a := range r.Atoms() {
			if reach[a.Pred] {
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

	estRows := func(p string) float64 {
		if pp == nil {
			return 0
		}
		return pp.EstPredRows(p)
	}
	dec := &Decisions{Streaming: true, Target: pred, Rules: make([]RuleDecision, len(eff.Rules))}
	spooled := map[string]bool{}
	peak := estRows(pred) // the target's distinct-key set
	for ri, r := range eff.Rules {
		if !reach[r.Head.Pred] {
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
			case an.inline[a.Pred]:
				sd.Exec, sd.Via = ExecStream, "inline"
				sd.EstBufferRows = estRows(a.Pred) // the producer's distinct-key set
				peak += sd.EstBufferRows
			case reach[a.Pred]:
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
	an.dec = dec
	return an, nil
}

// Explain returns the stream/materialize decisions Open would make for
// pred without executing anything. A recursive slice is not an error here:
// it yields Decisions{Streaming: false} so callers can render the
// fallback. pp, when non-nil, supplies both the planned rule order and the
// row estimates (pass the same plan /v1/explain renders so the step lists
// align).
func Explain(p *datalog.Program, pred string, pp *plan.ProgramPlan) (*Decisions, error) {
	if err := datalog.Validate(p); err != nil {
		return nil, err
	}
	eff := p
	if pp != nil && len(pp.PlannedRules()) > 0 {
		eff = &datalog.Program{Rules: pp.PlannedRules(), Goal: p.Goal}
	}
	an, err := analyze(eff, pred, pp)
	if err == nil {
		return an.dec, nil
	}
	if errors.Is(err, ErrRecursive) {
		return &Decisions{Streaming: false, Reason: "recursive", Target: pred}, nil
	}
	return nil, err
}
