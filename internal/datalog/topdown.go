package datalog

import (
	"context"
	"fmt"
	"slices"
)

// Goal-directed evaluation: a tabled, QSQ-flavoured top-down engine that
// answers a single goal atom with a binding pattern instead of saturating
// the whole fixpoint. Subgoal calls are normalized to (predicate, bound
// positions, bound values) and memoized; recursion through incomplete
// tables iterates to a local fixpoint, so termination follows from the
// finite universe exactly as for the bottom-up engine. Rule variables
// bound by no atom range over the universe, matching Section 2 semantics.
//
// The engine answers "which tuples matching the pattern are derivable",
// which for selective queries (e.g. Q2(s, s1, s2) at three constants)
// explores a fraction of what bottom-up saturation computes — the
// ablation benchmark BenchmarkE21_TopDownVsBottomUp quantifies it.

// Goal is a query atom: the predicate with optional per-position bindings.
type Goal struct {
	Pred string
	// Bound[i] reports whether position i is fixed to Value[i].
	Bound []bool
	Value []int
}

// NewGoal builds a goal; bindings maps argument positions to values.
func NewGoal(pred string, arity int, bindings map[int]int) Goal {
	g := Goal{Pred: pred, Bound: make([]bool, arity), Value: make([]int, arity)}
	for i, v := range bindings {
		if i < 0 || i >= arity {
			panic(fmt.Sprintf("datalog: goal binding position %d out of range", i))
		}
		g.Bound[i] = true
		g.Value[i] = v
	}
	return g
}

// goalKey is the normalized memo-table key of a subgoal call: the
// predicate, the bitmask of bound positions, and the packed encoding of
// the bound values. Building one allocates nothing in the common case.
type goalKey struct {
	pred string
	mask uint64
	vals tupleKey
}

func (g Goal) key() goalKey {
	var mask uint64
	for i, b := range g.Bound {
		if b {
			mask |= 1 << uint(i)
		}
	}
	return goalKey{pred: g.Pred, mask: mask, vals: keyProjected(Tuple(g.Value), mask)}
}

// Matches reports whether a tuple satisfies the goal's bindings.
func (g Goal) Matches(t Tuple) bool {
	for i := range g.Bound {
		if g.Bound[i] && t[i] != g.Value[i] {
			return false
		}
	}
	return true
}

// TopDown is the tabled goal-directed engine.
type TopDown struct {
	p      *Program
	db     *Database
	idbSet map[string]bool
	arity  map[string]int

	// edb resolves extensional reads; predicates absent from the database
	// share an empty relation so the input is never mutated.
	edb map[string]*Relation

	// tables maps goal keys to their answer relations; complete marks
	// fully evaluated tables; active guards against re-entering a goal
	// that is already being solved higher up the call stack (recursive
	// predicates) — the outer Ask loop supplies the missing iterations.
	tables   map[goalKey]*Relation
	complete map[goalKey]bool
	active   map[goalKey]bool
	// Calls counts subgoal invocations (for the ablation stats).
	Calls int

	// ctx is the active AskContext context; cancelled makes solve and the
	// enumeration loops unwind without deriving further.
	ctx       context.Context
	cancelled bool
}

// NewTopDown validates the program and prepares the engine.
func NewTopDown(p *Program, db *Database) (*TopDown, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	arity := p.Arities()
	edb := map[string]*Relation{}
	empty := map[int]*Relation{}
	for name := range p.EDBs() {
		r := db.Relation(name)
		if r == nil {
			if empty[arity[name]] == nil {
				empty[arity[name]] = NewDLRelation(arity[name])
			}
			r = empty[arity[name]]
		} else if r.Arity != arity[name] {
			return nil, fmt.Errorf("datalog: EDB %s has arity %d in the database but %d in the program",
				name, r.Arity, arity[name])
		}
		edb[name] = r
	}
	return &TopDown{
		p: p, db: db, idbSet: p.IDBs(), arity: arity, edb: edb,
		tables: map[goalKey]*Relation{}, complete: map[goalKey]bool{},
		active: map[goalKey]bool{},
	}, nil
}

// Ask answers a goal: all derivable tuples of the goal's predicate
// matching its bindings.
func (td *TopDown) Ask(g Goal) []Tuple {
	out, _ := td.AskContext(context.Background(), g)
	return out
}

// AskContext is Ask under a context: the context is checked at every
// subgoal invocation and between fixpoint passes, so a long-running
// derivation aborts promptly with ctx.Err(). The memo tables keep the
// answers derived so far (all sound — tabling only ever adds derivable
// tuples), so the engine remains usable after a cancelled ask.
func (td *TopDown) AskContext(ctx context.Context, g Goal) ([]Tuple, error) {
	if len(g.Bound) != td.arity[g.Pred] {
		panic(fmt.Sprintf("datalog: goal arity %d for %s (want %d)", len(g.Bound), g.Pred, td.arity[g.Pred]))
	}
	td.ctx, td.cancelled = ctx, false
	defer func() { td.ctx, td.cancelled = nil, false }()
	if !td.idbSet[g.Pred] {
		var out []Tuple
		rel := td.edb[g.Pred]
		if rel == nil {
			rel = td.db.Relation(g.Pred)
		}
		if rel != nil {
			rel.Each(func(t Tuple) bool {
				if g.Matches(t) {
					out = append(out, t)
				}
				return true
			})
		}
		sortTuples(out)
		return out, ctx.Err()
	}
	// Local fixpoint: iterate the goal's derivation until its table and
	// the tables of everything it depends on stop growing.
	key := g.key()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := td.totalFacts()
		td.solve(g)
		if td.cancelled {
			return nil, ctx.Err()
		}
		if td.totalFacts() == before {
			break
		}
	}
	td.complete[key] = true
	var out []Tuple
	td.tables[key].Each(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	sortTuples(out)
	return out, nil
}

func sortTuples(ts []Tuple) { slices.SortFunc(ts, CompareTuples) }

// SortTuples sorts a tuple slice into the canonical CompareTuples order,
// the order all sorted API responses use.
func SortTuples(ts []Tuple) { sortTuples(ts) }

func (td *TopDown) totalFacts() int {
	n := 0
	for _, r := range td.tables {
		n += r.Size()
	}
	return n
}

// solve runs one derivation pass for the goal, adding any newly derivable
// tuples to its table. Recursive subgoals read the tables as they
// currently stand (the outer loop in Ask restarts passes until global
// stability — the standard semi-naive-free formulation of tabling).
func (td *TopDown) solve(g Goal) *Relation {
	key := g.key()
	table, ok := td.tables[key]
	if !ok {
		table = NewDLRelation(td.arity[g.Pred])
		td.tables[key] = table
	}
	if td.complete[key] || td.active[key] {
		return table
	}
	// One context check per subgoal invocation; once it fires, the
	// cancelled flag short-circuits every enumeration loop so the whole
	// recursion unwinds without further derivation work.
	if td.cancelled || (td.ctx != nil && td.ctx.Err() != nil) {
		td.cancelled = true
		return table
	}
	td.active[key] = true
	defer delete(td.active, key)
	td.Calls++
	for _, rule := range td.p.Rules {
		if rule.Head.Pred != g.Pred {
			continue
		}
		td.fireTopDown(rule, g, func(t Tuple) {
			table.Add(t)
		})
	}
	return table
}

// fireTopDown enumerates satisfying assignments of the rule body, pushing
// the goal's bindings into the head first and resolving IDB subgoals
// through solve (with whatever bindings the current environment provides).
func (td *TopDown) fireTopDown(r Rule, g Goal, emit func(Tuple)) {
	binding := map[string]int{}
	// Push head bindings.
	for i, t := range r.Head.Args {
		if !g.Bound[i] {
			continue
		}
		if !t.IsVar() {
			if t.Const != g.Value[i] {
				return
			}
			continue
		}
		if v, ok := binding[t.Var]; ok {
			if v != g.Value[i] {
				return
			}
			continue
		}
		binding[t.Var] = g.Value[i]
	}
	atoms := r.Atoms()
	cons := r.Constraints()
	consOK := func() bool {
		for _, c := range cons {
			lv, lok := termValue(c.Left, binding)
			rv, rok := termValue(c.Right, binding)
			if !lok || !rok {
				continue
			}
			if (lv == rv) == c.Neq {
				return false
			}
		}
		return true
	}
	var finish func()
	finish = func() {
		unbound := ""
		for _, v := range r.Vars() {
			if _, ok := binding[v]; !ok {
				unbound = v
				break
			}
		}
		if unbound == "" {
			if !consOK() {
				return
			}
			head := make(Tuple, len(r.Head.Args))
			for i, t := range r.Head.Args {
				v, _ := termValue(t, binding)
				head[i] = v
			}
			emit(head)
			return
		}
		for x := 0; x < td.db.N; x++ {
			binding[unbound] = x
			if consOK() {
				finish()
			}
			delete(binding, unbound)
		}
	}
	var step func(ai int)
	step = func(ai int) {
		if ai == len(atoms) {
			finish()
			return
		}
		a := atoms[ai]
		// Build the subgoal from current bindings.
		sub := Goal{Pred: a.Pred, Bound: make([]bool, len(a.Args)), Value: make([]int, len(a.Args))}
		for i, t := range a.Args {
			if v, ok := termValue(t, binding); ok {
				sub.Bound[i] = true
				sub.Value[i] = v
			}
		}
		var candidates *Relation
		if td.idbSet[a.Pred] {
			candidates = td.solve(sub)
		} else {
			candidates = td.edb[a.Pred]
		}
		if candidates == nil {
			return
		}
		candidates.Each(func(tup Tuple) bool {
			if td.cancelled {
				return false
			}
			if !sub.Matches(tup) {
				return true
			}
			var bound []string
			ok := true
			for i, t := range a.Args {
				if !t.IsVar() {
					if tup[i] != t.Const {
						ok = false
						break
					}
					continue
				}
				if v, has := binding[t.Var]; has {
					if v != tup[i] {
						ok = false
						break
					}
					continue
				}
				binding[t.Var] = tup[i]
				bound = append(bound, t.Var)
			}
			if ok && consOK() {
				step(ai + 1)
			}
			for _, v := range bound {
				delete(binding, v)
			}
			return true
		})
	}
	step(0)
}
