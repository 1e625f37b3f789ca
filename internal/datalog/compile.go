package datalog

// Rule compilation. Eval compiles every rule once into a numeric form the
// join loop can interpret with no string hashing and no per-tuple
// allocations:
//
//   - variables are renamed to dense integer ids, so the binding
//     environment is a flat []int instead of a map[string]int;
//   - each argument position is classified statically as probe (constant
//     or variable bound by an earlier atom — part of the index mask, so a
//     candidate tuple already matches it), bind (first occurrence of a
//     variable — unconditional env write), or check (repeated occurrence
//     within the same atom — env compare). Because every read of a
//     variable happens at a level where it is statically bound, stale env
//     entries are harmless and no unbinding is needed on backtrack;
//   - each constraint is scheduled at the earliest level at which both of
//     its sides are bound and is checked exactly once per enumeration
//     path, which prunes at the same point the dynamic checker did;
//   - predicates are resolved to integer IDB ids (doubling as delta-pool
//     slots) or, for EDB atoms, to direct *Relation pointers.
//
// The compiled form is per-evaluation (it captures resolved EDB
// relations), so compilation cost is one pass over the program per Eval.
//
// An Incremental compiles every rule a second time in head-seeded form
// (seedRule): the same rule behind a leading atom that binds the head's
// arguments from a set of candidate head tuples, which is how delete
// maintenance asks "is this over-deleted tuple still derivable?" of one
// rule at the cost of a bound probe instead of a full firing.

// cTerm is a term with its variable renamed: varID >= 0 indexes the
// environment, varID < 0 means the constant val.
type cTerm struct {
	varID int
	val   int
}

func (t cTerm) eval(env []int) int {
	if t.varID >= 0 {
		return env[t.varID]
	}
	return t.val
}

// cAction applies one argument position to a candidate tuple.
type cAction struct {
	pos   int
	varID int
}

// cPat fills one probe-pattern position before a lookup.
type cPat struct {
	pos int
	t   cTerm
}

// cAtom is a body atom with its probe mask and post-probe actions.
type cAtom struct {
	pred   string
	arity  int
	idbID  int       // >= 0: IDB predicate id; -1: EDB
	edbRel *Relation // resolved EDB relation when idbID == -1
	tab    int       // the predicate's table in the witness store
	mask   uint64
	pat    []cPat    // mask positions to fill into the probe pattern
	binds  []cAction // first-occurrence variables: env[varID] = tup[pos]
	checks []cAction // repeated-in-atom variables: env[varID] == tup[pos]?
}

// cCons is a compiled constraint.
type cCons struct {
	l, r cTerm
	neq  bool
}

// cRule is the compiled form of one rule.
type cRule struct {
	ri     int
	headID int // IDB id of the head predicate
	head   []cTerm
	atoms  []cAtom
	free   []int // var ids bound by no atom, in Vars() order
	// consAt[lvl] holds the constraints first fully bound after completing
	// level lvl: levels 0..len(atoms)-1 are body atoms, len(atoms)+k is
	// the k-th free variable.
	consAt [][]cCons
	never  bool // a constant-only constraint is violated: the rule is dead
	maxAr  int
	nv     int
	// skip is 1 for a head-seeded form, whose atom 0 is the seed: it binds
	// the head from a candidate tuple and is no part of a witness, and one
	// emission per candidate is enough. origin then maps each atom to its
	// body position in the program's rule (seedRule reorders the body); nil
	// is the identity.
	skip   int
	origin []int
}

// indexed reports whether the atom is probed through a join index: some
// but not all of its columns are bound. An atom bound on no column is
// scanned, one bound on every column is a membership test on the
// relation's own tuple set, and neither needs an index.
func (a *cAtom) indexed() bool {
	return a.mask != 0 && a.mask != 1<<uint(a.arity)-1
}

// seedPred names the synthetic leading atom of a head-seeded rule. It is
// not an identifier the lexer accepts, so no program predicate has it.
const seedPred = "\x00seed"

// seedRule returns r in head-seeded form: a leading atom over the head's
// own arguments — fired with that atom reading a set of candidate head
// tuples, the rule derives exactly the candidates r can derive — followed
// by r's body atoms, reordered so that each next atom is the one with the
// most columns bound by then (ties to the textual order): with the head
// bound up front the textual order, chosen for an unbound head, may open
// with an atom the seed binds nothing of. origin[i] is the position in
// r's body of the seeded rule's atom i, -1 for the seed.
func seedRule(r Rule) (Rule, []int) {
	atoms := r.Atoms()
	bound := map[string]bool{}
	bind := func(a Atom) {
		for _, t := range a.Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	bind(r.Head)
	out := Rule{Head: r.Head, Body: []BodyItem{{Atom: &Atom{Pred: seedPred, Args: r.Head.Args}}}}
	origin := []int{-1}
	placed := make([]bool, len(atoms))
	for range atoms {
		best, bestBound := -1, -1
		for i, a := range atoms {
			if placed[i] {
				continue
			}
			n := 0
			for _, t := range a.Args {
				if !t.IsVar() || bound[t.Var] {
					n++
				}
			}
			if n > bestBound {
				best, bestBound = i, n
			}
		}
		placed[best] = true
		bind(atoms[best])
		out.Body = append(out.Body, BodyItem{Atom: &atoms[best]})
		origin = append(origin, best)
	}
	for _, b := range r.Body {
		if b.Constraint != nil {
			out.Body = append(out.Body, b)
		}
	}
	return out, origin
}

// compileRule translates rule ri into its numeric form using the
// evaluator's predicate tables.
func (e *evaluator) compileRule(ri int, r Rule) *cRule {
	atoms := r.Atoms()
	vars := r.Vars()
	ids := make(map[string]int, len(vars))
	for i, v := range vars {
		ids[v] = i
	}
	cr := &cRule{ri: ri, headID: e.idbID[r.Head.Pred], nv: len(vars)}

	// Bind level of each variable: the first atom containing it, or, for
	// variables in no atom, len(atoms) + its position in the free list.
	level := make([]int, len(vars))
	for i := range level {
		level[i] = -1
	}
	for ai, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() && level[ids[t.Var]] < 0 {
				level[ids[t.Var]] = ai
			}
		}
	}
	for _, v := range vars {
		if level[ids[v]] < 0 {
			level[ids[v]] = len(atoms) + len(cr.free)
			cr.free = append(cr.free, ids[v])
		}
	}

	term := func(t Term) cTerm {
		if t.IsVar() {
			return cTerm{varID: ids[t.Var]}
		}
		return cTerm{varID: -1, val: t.Const}
	}

	cr.head = make([]cTerm, len(r.Head.Args))
	for i, t := range r.Head.Args {
		cr.head[i] = term(t)
	}

	cr.atoms = make([]cAtom, len(atoms))
	for ai, a := range atoms {
		ca := cAtom{pred: a.Pred, arity: len(a.Args), idbID: -1}
		if id, ok := e.idbID[a.Pred]; ok {
			ca.idbID = id
		} else {
			ca.edbRel = e.edb[a.Pred]
		}
		ca.tab = e.wit.tabID[a.Pred]
		if ca.arity > cr.maxAr {
			cr.maxAr = ca.arity
		}
		seen := map[int]bool{}
		for i, t := range a.Args {
			switch {
			case !t.IsVar():
				ca.mask |= 1 << uint(i)
				ca.pat = append(ca.pat, cPat{pos: i, t: term(t)})
			case level[ids[t.Var]] < ai:
				ca.mask |= 1 << uint(i)
				ca.pat = append(ca.pat, cPat{pos: i, t: term(t)})
			case seen[ids[t.Var]]:
				ca.checks = append(ca.checks, cAction{pos: i, varID: ids[t.Var]})
			default:
				seen[ids[t.Var]] = true
				ca.binds = append(ca.binds, cAction{pos: i, varID: ids[t.Var]})
			}
		}
		cr.atoms[ai] = ca
	}

	// Schedule each constraint at the level where both sides are bound.
	cr.consAt = make([][]cCons, len(atoms)+len(cr.free))
	for _, c := range r.Constraints() {
		l, rt := term(c.Left), term(c.Right)
		ready := -1
		if l.varID >= 0 && level[l.varID] > ready {
			ready = level[l.varID]
		}
		if rt.varID >= 0 && level[rt.varID] > ready {
			ready = level[rt.varID]
		}
		if ready < 0 {
			// Both sides constant: decide once.
			if (l.val == rt.val) == c.Neq {
				cr.never = true
			}
			continue
		}
		cr.consAt[ready] = append(cr.consAt[ready], cCons{l: l, r: rt, neq: c.Neq})
	}
	return cr
}

// ProbeMasks returns, per body atom of r, the probe mask compileRule
// will use for that atom: bit i set means argument i is a constant or a
// variable bound by an earlier atom, so it is part of the indexed
// lookup. Exported so internal/plan's cost model and the -explain output
// describe exactly the masks the join loop executes.
func ProbeMasks(r Rule) []uint64 {
	atoms := r.Atoms()
	masks := make([]uint64, len(atoms))
	level := map[string]int{}
	for ai, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				if _, ok := level[t.Var]; !ok {
					level[t.Var] = ai
				}
			}
		}
	}
	for ai, a := range atoms {
		for i, t := range a.Args {
			if !t.IsVar() || level[t.Var] < ai {
				masks[ai] |= 1 << uint(i)
			}
		}
	}
	return masks
}

// consOK evaluates a scheduled constraint batch against the environment.
func consOK(cons []cCons, env []int) bool {
	for _, c := range cons {
		if (c.l.eval(env) == c.r.eval(env)) == c.neq {
			return false
		}
	}
	return true
}
