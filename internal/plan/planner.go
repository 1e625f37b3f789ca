package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/datalog"
	"repro/internal/lru"
)

// Config tunes the planner. The zero value is usable; New fills in the
// documented defaults.
type Config struct {
	// MaxExhaustive is the body size up to which every atom permutation
	// is costed (m! orders, so 6 means at most 720 candidates); larger
	// bodies fall back to the greedy orderer. Default 6.
	MaxExhaustive int
	// DisablePrune turns the containment pre-pass off (subsumed-rule and
	// redundant-atom removal); ordering still runs.
	DisablePrune bool
	// MaxPruneRules caps the program size the containment pre-pass is
	// attempted on — the pairwise check is quadratic. Default 64.
	MaxPruneRules int
	// MaxPruneAtoms caps the body size eligible for CQ minimization.
	// Default 6.
	MaxPruneAtoms int
	// CacheEntries bounds the plan cache. Default 128.
	CacheEntries int
	// Stats, when set, supplies the catalog for a database instead of a
	// full Collect scan — the service wires the versioned store's
	// incrementally-maintained catalog in here, which is what makes
	// repeated plan lookups ~free.
	Stats func(db *datalog.Database) *Catalog
}

// Planner orders rule bodies by estimated cost and caches the results.
// It implements datalog.Planner; one instance is safe for concurrent
// use and is meant to be shared so the cache actually gets hits.
type Planner struct {
	cfg Config

	built       atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	rulesPruned atomic.Int64
	atomsPruned atomic.Int64

	cache *lru.Cache[planKey, *ProgramPlan]
}

// New returns a planner with defaults applied.
func New(cfg Config) *Planner {
	if cfg.MaxExhaustive <= 0 {
		cfg.MaxExhaustive = 6
	}
	if cfg.MaxPruneRules <= 0 {
		cfg.MaxPruneRules = 64
	}
	if cfg.MaxPruneAtoms <= 0 {
		cfg.MaxPruneAtoms = 6
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 128
	}
	return &Planner{cfg: cfg, cache: lru.New[planKey, *ProgramPlan](cfg.CacheEntries)}
}

// Counters is a snapshot of the planner's lifetime activity.
type Counters struct {
	Built       int64 // plans constructed (cache misses that completed)
	CacheHits   int64
	CacheMisses int64
	RulesPruned int64 // subsumed rules dropped across all builds
	AtomsPruned int64 // redundant body atoms removed across all builds
	Entries     int64 // current cache population
}

// Counters returns the current totals.
func (pl *Planner) Counters() Counters {
	return Counters{
		Built:       pl.built.Load(),
		CacheHits:   pl.hits.Load(),
		CacheMisses: pl.misses.Load(),
		RulesPruned: pl.rulesPruned.Load(),
		AtomsPruned: pl.atomsPruned.Load(),
		Entries:     int64(pl.cache.Len()),
	}
}

// Strategy names the planning configuration; it is part of the cache
// key, so two planners with different knobs never share plans.
func (pl *Planner) Strategy() string {
	return fmt.Sprintf("greedy+exh%d,prune=%t", pl.cfg.MaxExhaustive, !pl.cfg.DisablePrune)
}

// PlanRules implements datalog.Planner: every evaluation entry point
// passes through here. The heavy lifting is one PlanProgram call, which
// is a cache hit for every repeat of (program, stats epoch).
func (pl *Planner) PlanRules(p *datalog.Program, db *datalog.Database) ([]datalog.Rule, error) {
	pp, _ := pl.PlanProgram(p, pl.CatalogFor(db))
	return pp.PlannedRules(), nil
}

// boundPlanner is the planner bound to one statistics catalog: the
// datalog.Planner the service installs per evaluation, so each snapshot
// is planned under its own version's statistics rather than a global
// guess.
type boundPlanner struct {
	pl  *Planner
	cat *Catalog
}

func (b boundPlanner) PlanRules(p *datalog.Program, _ *datalog.Database) ([]datalog.Rule, error) {
	pp, _ := b.pl.PlanProgram(p, b.cat)
	return pp.PlannedRules(), nil
}

// With returns a datalog.Planner that plans every program under the
// given catalog, ignoring the database handed to PlanRules.
func (pl *Planner) With(cat *Catalog) datalog.Planner { return boundPlanner{pl: pl, cat: cat} }

// CatalogFor resolves the statistics source for a database: the
// configured Stats hook, or a full Collect scan.
func (pl *Planner) CatalogFor(db *datalog.Database) *Catalog {
	if pl.cfg.Stats != nil {
		if c := pl.cfg.Stats(db); c != nil {
			return c
		}
	}
	return Collect(db)
}

// HashProgram is the program component of the plan-cache key: the
// SHA-256 of the printed program and goal, so one program queried
// repeatedly maps to one cache line however its text was written.
func HashProgram(p *datalog.Program) string {
	h := sha256.Sum256([]byte(p.String() + "\x00" + p.Goal))
	return hex.EncodeToString(h[:])
}

// planKey identifies one cacheable planning problem: the program (by
// content hash), the statistics epoch it was costed under, and the
// strategy knobs that shaped the search. A magic-rewritten program
// hashes differently per binding, so goal-directed plans get their own
// lines; a commit that moves no cardinality across a power-of-two
// boundary keeps the epoch, so its plans keep hitting. Plans are immutable
// once built, so a hit is returned without copying.
type planKey struct {
	hash     string
	epoch    uint64
	strategy string
}

// PlanProgram returns the plan for p under the catalog's statistics,
// consulting the cache first; the second result reports a cache hit.
func (pl *Planner) PlanProgram(p *datalog.Program, cat *Catalog) (*ProgramPlan, bool) {
	key := planKey{hash: HashProgram(p), epoch: cat.Fingerprint(), strategy: pl.Strategy()}
	if pp, ok := pl.cache.Get(key); ok {
		pl.hits.Add(1)
		return pp, true
	}
	pl.misses.Add(1)
	pp := pl.build(p, cat)
	pl.built.Add(1)
	pl.cache.Put(key, pp)
	return pp, false
}

// build constructs the plan: containment pre-pass, then per-rule join
// ordering.
func (pl *Planner) build(p *datalog.Program, cat *Catalog) *ProgramPlan {
	rules := p.Rules
	pp := &ProgramPlan{Goal: p.Goal, Epoch: cat.Fingerprint(), Strategy: pl.Strategy()}
	if !pl.cfg.DisablePrune {
		var dropped int
		rules, pp.Pruned, dropped = pruneRules(rules, pl.cfg)
		pl.rulesPruned.Add(int64(len(pp.Pruned)))
		pl.atomsPruned.Add(int64(dropped))
	}
	pp.Rules = make([]RulePlan, len(rules))
	planned := make([]datalog.Rule, len(rules))
	for i, r := range rules {
		pp.Rules[i] = pl.planRule(r, cat)
		planned[i] = pp.Rules[i].Rule
	}
	pp.prog = &datalog.Program{Rules: planned, Goal: p.Goal}
	return pp
}

// AtomStep is one join step of a planned rule body.
type AtomStep struct {
	Atom      string  // the atom as executed at this position
	OrigIndex int     // its index in the source body (after minimization)
	Probe     uint64  // probe mask the compiled join loop will use here
	EstFanout float64 // estimated matching tuples per probe
	EstRows   float64 // estimated cumulative intermediate rows after this step
}

// RulePlan is the chosen execution order for one rule.
type RulePlan struct {
	Original   string // source rule (possibly already minimized)
	Planned    string // rule as it will execute
	Rule       datalog.Rule
	Steps      []AtomStep
	EstRows    float64 // estimated rows out of the final join step
	EstCost    float64 // Σ estimated intermediate cardinalities — the objective
	Exhaustive bool    // all permutations costed (body ≤ MaxExhaustive)
	Reordered  bool    // chosen order differs from textual order
}

// PrunedRule records a rule the containment pre-pass removed.
type PrunedRule struct {
	Rule string // the dropped rule
	By   string // the surviving rule that contains it
}

// ProgramPlan is a fully planned program: what the cache stores and
// what -explain renders.
type ProgramPlan struct {
	Goal     string
	Epoch    uint64
	Strategy string
	Rules    []RulePlan
	Pruned   []PrunedRule

	prog *datalog.Program
}

// PlannedRules returns the planned rule list (treat as read-only — the
// slice backs every evaluation that hits this cache entry).
func (pp *ProgramPlan) PlannedRules() []datalog.Rule { return pp.prog.Rules }

// EstPredRows returns the estimated number of tuples the plan expects pred
// to hold at fixpoint: the sum of final-step row estimates over the rules
// with that head (0 when no rule derives it — e.g. it was pruned). The
// streaming executor reports it as the buffered rows a streamed or spooled
// intermediate costs; it decides nothing.
func (pp *ProgramPlan) EstPredRows(pred string) float64 {
	var sum float64
	for i := range pp.Rules {
		if pp.Rules[i].Rule.Head.Pred == pred {
			sum += pp.Rules[i].EstRows
		}
	}
	return sum
}

// Program returns the planned program (read-only, shared).
func (pp *ProgramPlan) Program() *datalog.Program { return pp.prog }

// minFanout floors per-step estimates so chains of selective joins keep
// a total order instead of collapsing to zero.
const minFanout = 1e-4

// fanout estimates how many tuples of atom a match one probe, given the
// set of already-bound variables: rows × Π 1/distinct(col) over the
// bound positions. Predicates without statistics (IDB mid-derivation)
// get the catalog's default row count with every column assumed fully
// distinct — deliberately pessimistic on rows, optimistic on
// selectivity, which keeps small known EDB relations attractive as
// join anchors.
func fanout(a datalog.Atom, bound map[string]bool, cat *Catalog) float64 {
	st, known := cat.Rel(a.Pred)
	rows := cat.DefaultRows()
	if known {
		rows = st.Rows
	}
	f := float64(rows)
	for i, t := range a.Args {
		if t.IsVar() && !bound[t.Var] {
			continue
		}
		d := rows
		if known && st.Distinct[i] > 0 {
			d = st.Distinct[i]
		}
		if d < 1 {
			d = 1
		}
		f /= float64(d)
	}
	if f < minFanout {
		f = minFanout
	}
	return f
}

// boundPositions counts argument positions of a that are constants or
// already-bound variables — the greedy tie-breaker (more bound
// positions means a tighter probe mask at equal estimated fanout).
func boundPositions(a datalog.Atom, bound map[string]bool) int {
	n := 0
	for _, t := range a.Args {
		if !t.IsVar() || bound[t.Var] {
			n++
		}
	}
	return n
}

// orderCost evaluates the objective for one atom order: the sum of
// estimated intermediate cardinalities after each join step.
func orderCost(atoms []datalog.Atom, order []int, cat *Catalog) float64 {
	bound := map[string]bool{}
	cur := 1.0
	cost := 0.0
	for _, i := range order {
		cur *= fanout(atoms[i], bound, cat)
		cost += cur
		for _, t := range atoms[i].Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	return cost
}

// greedyOrder picks, at each step, the remaining atom with the smallest
// estimated fanout under the current bindings; ties fall to the atom
// with more bound positions, then to the earlier textual position — so
// the result is deterministic and preserves textual order when the
// statistics see no difference.
func greedyOrder(atoms []datalog.Atom, cat *Catalog) []int {
	order := make([]int, 0, len(atoms))
	used := make([]bool, len(atoms))
	bound := map[string]bool{}
	for len(order) < len(atoms) {
		best := -1
		bestF := 0.0
		bestBound := -1
		for i := range atoms {
			if used[i] {
				continue
			}
			f := fanout(atoms[i], bound, cat)
			nb := boundPositions(atoms[i], bound)
			if best < 0 || f < bestF || (f == bestF && nb > bestBound) {
				best, bestF, bestBound = i, f, nb
			}
		}
		order = append(order, best)
		used[best] = true
		for _, t := range atoms[best].Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	return order
}

// exhaustiveOrder costs every permutation (generated in lexicographic
// order so equal-cost candidates resolve to the most textual one) and
// returns the cheapest.
func exhaustiveOrder(atoms []datalog.Atom, cat *Catalog) []int {
	n := len(atoms)
	best := make([]int, n)
	bestCost := math.Inf(1)
	perm := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(perm) == n {
			if c := orderCost(atoms, perm, cat); c < bestCost {
				bestCost = c
				copy(best, perm)
			}
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			perm = append(perm, i)
			rec()
			perm = perm[:len(perm)-1]
			used[i] = false
		}
	}
	rec()
	return best
}

// planRule orders one rule's body.
func (pl *Planner) planRule(r datalog.Rule, cat *Catalog) RulePlan {
	atoms := r.Atoms()
	var order []int
	exhaustive := false
	switch {
	case len(atoms) <= 1:
		order = make([]int, len(atoms))
		for i := range order {
			order[i] = i
		}
	case len(atoms) <= pl.cfg.MaxExhaustive:
		order = exhaustiveOrder(atoms, cat)
		exhaustive = true
	default:
		order = greedyOrder(atoms, cat)
	}
	reordered := !sort.IntsAreSorted(order)
	planned := r
	if reordered {
		planned = reorderRule(r, order)
	}
	rp := RulePlan{
		Original:   r.String(),
		Planned:    planned.String(),
		Rule:       planned,
		EstCost:    orderCost(atoms, order, cat),
		Exhaustive: exhaustive,
		Reordered:  reordered,
	}
	masks := datalog.ProbeMasks(planned)
	bound := map[string]bool{}
	cur := 1.0
	for step, i := range order {
		f := fanout(atoms[i], bound, cat)
		cur *= f
		rp.Steps = append(rp.Steps, AtomStep{
			Atom:      atoms[i].String(),
			OrigIndex: i,
			Probe:     masks[step],
			EstFanout: f,
			EstRows:   cur,
		})
		for _, t := range atoms[i].Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	rp.EstRows = cur
	return rp
}

// reorderRule rebuilds the rule with its atoms in the given order;
// constraints keep their original relative order after the atoms (the
// compiler schedules them by variable bind level, not body position,
// so placement is cosmetic).
func reorderRule(r datalog.Rule, order []int) datalog.Rule {
	atoms := r.Atoms()
	body := make([]datalog.BodyItem, 0, len(r.Body))
	for _, i := range order {
		a := atoms[i]
		body = append(body, datalog.BodyItem{Atom: &a})
	}
	for _, c := range r.Constraints() {
		cc := c
		body = append(body, datalog.BodyItem{Constraint: &cc})
	}
	return datalog.Rule{Head: r.Head, Body: body}
}

// RuleError compares a rule plan's estimate with what evaluation
// actually derived; AbsLog2 is |log₂(est/actual)| with +1 smoothing —
// the estimation-error unit exported to the metrics histogram.
type RuleError struct {
	Rule    string
	Est     float64
	Actual  float64
	AbsLog2 float64
}

// EstimationErrors pairs a program plan with the evaluation stats it
// produced. The actual is the rule's total derived rows (duplicates
// included — the quantity the cost objective estimates per firing,
// summed over the fixpoint's firings); index alignment with the stats
// is guaranteed because the evaluator compiled exactly the planned
// rules.
func EstimationErrors(pp *ProgramPlan, st *datalog.EvalStats) []RuleError {
	if pp == nil || st == nil || len(pp.Rules) != len(st.Rules) {
		return nil
	}
	out := make([]RuleError, len(pp.Rules))
	for i := range pp.Rules {
		est := pp.Rules[i].EstRows
		actual := float64(st.Rules[i].Derived)
		out[i] = RuleError{
			Rule:    pp.Rules[i].Planned,
			Est:     est,
			Actual:  actual,
			AbsLog2: math.Abs(math.Log2((est + 1) / (actual + 1))),
		}
	}
	return out
}
