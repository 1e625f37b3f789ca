package datalog

// Evaluation statistics. Every evaluation — Eval, EvalContext, and the
// continuations Incremental re-enters on updates — records per-rule and
// per-round counters into Result.Stats. A round's tasks fire one after
// another on the evaluating goroutine, so the counters are deterministic;
// only the wall-time fields vary between runs.
//
// The paper's constructions differ sharply in where evaluation time goes
// — the Theorem 6.1 flow programs are join-bound while the Q_{k,l} stage
// computations are dominated by duplicate rederivations — and the
// per-rule breakdown is what makes that visible without profiling.

// RuleStats aggregates the work done by one program rule.
type RuleStats struct {
	// Rule is the rule's printed form.
	Rule string `json:"rule"`
	// Firings counts task executions: once per round the rule fired in
	// (naive), or once per (round, delta-position) pair (semi-naive).
	Firings int64 `json:"firings"`
	// Derived counts head tuples emitted, including duplicates.
	Derived int64 `json:"derived"`
	// New counts emitted tuples that were genuinely new at commit time.
	New int64 `json:"new"`
	// Duplicates counts emitted tuples already present (Derived - New).
	Duplicates int64 `json:"duplicates"`
	// Probes counts relation lookups issued while joining the body.
	Probes int64 `json:"index_probes"`
	// TimeNs is the wall time spent firing the rule, in nanoseconds. Rule
	// times do not overlap, so they sum to at most the evaluation's wall
	// time.
	TimeNs int64 `json:"time_ns"`
}

// RoundStats aggregates one iteration round.
type RoundStats struct {
	// Round is the 1-based round number (Incremental updates keep
	// counting, so rounds are unique across the view's lifetime).
	Round int `json:"round"`
	// Tasks is the number of rule-firing tasks scheduled this round.
	Tasks int `json:"tasks"`
	// Derived counts tuples emitted this round, including duplicates.
	Derived int64 `json:"derived"`
	// New counts tuples committed as new this round.
	New int64 `json:"new"`
	// TimeNs is the round's wall time in nanoseconds.
	TimeNs int64 `json:"time_ns"`
}

// EvalStats is the full instrumentation snapshot of an evaluation: one
// entry per program rule, one entry per executed round (capped — see
// Rounds), and the totals.
type EvalStats struct {
	// Rules has one entry per program rule, in rule order.
	Rules []RuleStats `json:"rules"`
	// Rounds holds per-round counters for the most recent rounds. A
	// long-lived Incremental view keeps only the trailing maxRoundStats
	// rounds; RoundsDropped counts the ones discarded.
	Rounds        []RoundStats `json:"rounds"`
	RoundsDropped int64        `json:"rounds_dropped,omitempty"`
	// Totals over all rules and all rounds (including dropped ones).
	Firings    int64 `json:"firings"`
	Derived    int64 `json:"derived"`
	New        int64 `json:"new"`
	Duplicates int64 `json:"duplicates"`
	Probes     int64 `json:"index_probes"`
	// OverDeleted and Rederived total, over an Incremental view's delete
	// runs, the tuples DRed over-deleted (their witness lost a fact) and the
	// ones among them rederivation brought back; the difference left the
	// view. Both stay 0 for a plain evaluation.
	OverDeleted int64 `json:"overdeleted"`
	Rederived   int64 `json:"rederived"`
	// TimeNs is the evaluation's accumulated wall time in nanoseconds
	// (summed across updates for an Incremental view). It also covers the
	// commits between firings, so it is at least the sum of the rule times.
	TimeNs int64 `json:"time_ns"`
}

// maxRoundStats bounds the retained per-round history so a long-lived
// Incremental view (millions of updates) cannot grow without bound. The
// per-rule counters and the EvalStats totals keep accumulating.
const maxRoundStats = 1024

// ruleCounters is the evaluator's mutable per-rule accumulator; the
// exported RuleStats snapshot is assembled from it on demand.
type ruleCounters struct {
	firings    int64
	derived    int64
	fresh      int64
	duplicates int64
	probes     int64
	timeNs     int64
}

// statsSnapshot assembles the exported stats from the evaluator's
// accumulators. Called per result() — cheap relative to any evaluation.
func (e *evaluator) statsSnapshot() *EvalStats {
	st := &EvalStats{
		Rules:         e.ruleStatsSnapshot(),
		Rounds:        append([]RoundStats(nil), e.roundStats...),
		RoundsDropped: e.roundsDropped,
		OverDeleted:   e.overDeleted,
		Rederived:     e.rederived,
	}
	for _, rs := range st.Rules {
		st.Firings += rs.Firings
		st.Derived += rs.Derived
		st.New += rs.New
		st.Duplicates += rs.Duplicates
		st.Probes += rs.Probes
	}
	st.TimeNs = e.elapsedNs
	return st
}

// ruleStatsSnapshot copies the per-rule accumulators out as RuleStats; each
// rule is printed once per evaluator, on the first call.
func (e *evaluator) ruleStatsSnapshot() []RuleStats {
	if e.ruleText == nil {
		e.ruleText = make([]string, len(e.p.Rules))
		for ri := range e.p.Rules {
			e.ruleText[ri] = e.p.Rules[ri].String()
		}
	}
	out := make([]RuleStats, len(e.ruleStats))
	for ri, rc := range e.ruleStats {
		out[ri] = RuleStats{
			Rule:       e.ruleText[ri],
			Firings:    rc.firings,
			Derived:    rc.derived,
			New:        rc.fresh,
			Duplicates: rc.duplicates,
			Probes:     rc.probes,
			TimeNs:     rc.timeNs,
		}
	}
	return out
}

// recordRound appends one round's counters, trimming the history to the
// trailing maxRoundStats entries.
func (e *evaluator) recordRound(rs RoundStats) {
	if len(e.roundStats) >= maxRoundStats {
		drop := len(e.roundStats) - maxRoundStats + 1
		e.roundsDropped += int64(drop)
		e.roundStats = append(e.roundStats[:0], e.roundStats[drop:]...)
	}
	e.roundStats = append(e.roundStats, rs)
}
