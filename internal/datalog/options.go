package datalog

import "fmt"

// Planner rewrites a program before compilation: reordering body atoms,
// dropping subsumed rules, or removing redundant atoms. The returned
// rules must compute the same least fixpoint, the same per-tuple first
// stages and the same round count as the input on every database —
// internal/plan's cost-based join orderer is the implementation; the
// engine stays oblivious to how the order was chosen. The database is
// read-only input for statistics. Returning an empty slice (or a nil
// Planner) leaves the program untouched.
type Planner interface {
	PlanRules(p *Program, db *Database) ([]Rule, error)
}

// Options configures evaluation. Zero value is naive evaluation without
// indexes; start from DefaultOptions and derive variants with the With*
// builders, which is the supported way to configure commands and services
// without mutating shared state.
type Options struct {
	// SemiNaive selects delta-driven evaluation; false means naive
	// round-based iteration. Both compute the same least fixpoint and the
	// same per-tuple first stages.
	SemiNaive bool
	// UseIndexes enables hash join indexes on bound column sets. The
	// evaluator pre-registers an index for every statically-known bound
	// mask of every rule atom, and the indexes are maintained
	// incrementally across rounds rather than rebuilt.
	UseIndexes bool
	// MaxRounds aborts evaluation after this many rounds when > 0 (a
	// safety valve; the fixpoint is always reached within N^r rounds).
	MaxRounds int
	// TrackProvenance records each tuple's first derivation for
	// Result.Prove.
	TrackProvenance bool
	// Planner, when non-nil, rewrites the program (join order, subsumed
	// rules) before every compilation — Eval, NewIncremental and the
	// magic-set paths all pass through it. Its order is the one the
	// compiler's own join-order rule breaks ties by (compile.go); nil
	// leaves the rules as written.
	Planner Planner
}

// DefaultOptions is semi-naive with indexes. Treat it as read-only: derive
// per-caller variants with the With* builders instead of mutating it
// (mutation changes behavior for every DefaultOptions user in the
// process, which is exactly the shared-state bug the builders avoid).
var DefaultOptions = Options{SemiNaive: true, UseIndexes: true}

// WithSemiNaive returns a copy with delta-driven evaluation on or off.
func (o Options) WithSemiNaive(on bool) Options { o.SemiNaive = on; return o }

// WithIndexes returns a copy with join indexes on or off.
func (o Options) WithIndexes(on bool) Options { o.UseIndexes = on; return o }

// WithMaxRounds returns a copy that aborts after n rounds (0 = no bound).
func (o Options) WithMaxRounds(n int) Options { o.MaxRounds = n; return o }

// WithProvenance returns a copy with first-derivation tracking on or off.
func (o Options) WithProvenance(on bool) Options { o.TrackProvenance = on; return o }

// WithPlanner returns a copy evaluating through the given planner (nil
// removes it).
func (o Options) WithPlanner(pl Planner) Options { o.Planner = pl; return o }

// Validate reports whether the options are well formed. It is the single
// validation point: every evaluation entry (Eval, EvalContext,
// NewIncremental) passes through it, so knob errors surface identically
// everywhere.
func (o Options) Validate() error {
	if o.MaxRounds < 0 {
		return fmt.Errorf("datalog: Options.MaxRounds must be >= 0, got %d", o.MaxRounds)
	}
	return nil
}
