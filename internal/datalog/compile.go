package datalog

import "slices"

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
// relations). Compilation has two steps. A rule is translated once
// (translate): names become numbers, and nothing in the result depends on
// the order its atoms are joined in. It is then scheduled (schedule) once
// per order it is fired in — levels, masks, actions and constraint
// placement are what an order decides. One function chooses every order
// (order): at each step the atom with the most columns bound by then. The
// form with no leading atom is the one the naive loop and round 1 fire;
// its ties go to the smaller relation at compile time, an IDB atom counted
// as empty (it is, in round 1), then to the order the rule arrives in (the
// planner's when there is one). Every other firing is led by an atom: one
// body atom moved to the front, where it reads a plain list of tuples
// instead of a relation, and the rest of the body ordered to follow it,
// ties to the arrival order. The semi-naive loop leads with each IDB atom
// and hands it that predicate's delta; an Incremental also leads with each
// EDB atom (the inserted facts) and with a synthetic atom over the head's
// own arguments (the over-deleted tuples: "is this one still derivable?"
// at the cost of a bound probe instead of a full firing). A form keeps the
// map from its atoms back to the rule's body (origin), so rule ids, led
// forms and witnesses stay indexed by body position whatever the order.
// The streaming executor runs the unled form, unresolved, through the
// read-only Join (CompileJoin).

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

// cSrcAtom is a body atom translated to numbers.
type cSrcAtom struct {
	pred  string
	idbID int // >= 0: IDB predicate id; -1: EDB
	tab   int // the predicate's table in the witness store
	args  []cTerm
}

// cAtom is a body atom at its place in a join order, with its probe mask
// and post-probe actions.
type cAtom struct {
	cSrcAtom
	arity  int
	edbRel *Relation // resolved EDB relation when idbID == -1; see evaluator.resolve
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

// cSrc is a rule translated to numbers, before an atom order is chosen:
// what every compiled form of the rule shares.
type cSrc struct {
	ri     int
	headID int // IDB id of the head predicate
	head   []cTerm
	atoms  []cSrcAtom // in the order the rule arrives in (planned, else textual)
	cons   []cCons
	never  bool // a constant-only constraint is violated: the rule is dead
	maxAr  int
	nv     int
}

// cRule is one compiled form of a rule: its cSrc scheduled in one order.
type cRule struct {
	*cSrc
	atoms []cAtom
	free  []int // var ids bound by no atom, ascending
	// consAt[lvl] holds the constraints first fully bound after completing
	// level lvl: levels 0..len(atoms)-1 are body atoms, len(atoms)+k is
	// the k-th free variable.
	consAt [][]cCons
	// led marks a leading-atom form: atom 0 reads the list its task carries
	// and is probed on nothing. origin maps each atom to its position in the
	// source's body (order chose the form's order); nil is the identity.
	// skip is 1 when the leading atom is the head seed, which binds the head
	// from a candidate tuple and is no part of a witness — and one emission
	// per candidate is enough.
	led    bool
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

// translate renames rule ri's variables to dense ids in first-occurrence
// order (head first, then body) and resolves its predicates through the
// evaluator's tables; nil tables leave every atom unresolved, which is
// enough to order a body.
func translate(ri int, r Rule, idbID, tabID map[string]int) *cSrc {
	// A rule has a handful of variables: a scan beats a map.
	var vars []string
	term := func(t Term) cTerm {
		if !t.IsVar() {
			return cTerm{varID: -1, val: t.Const}
		}
		i := slices.Index(vars, t.Var)
		if i < 0 {
			i = len(vars)
			vars = append(vars, t.Var)
		}
		return cTerm{varID: i}
	}
	src := &cSrc{ri: ri, headID: idbID[r.Head.Pred]}
	width := len(r.Head.Args)
	for _, b := range r.Body {
		if b.Atom != nil {
			width += len(b.Atom.Args)
		}
	}
	terms := make([]cTerm, 0, width) // one backing array for every argument list
	args := func(ts []Term) []cTerm {
		from := len(terms)
		for _, t := range ts {
			terms = append(terms, term(t))
		}
		return terms[from:len(terms):len(terms)]
	}
	src.head = args(r.Head.Args)
	for _, b := range r.Body {
		if a := b.Atom; a != nil {
			sa := cSrcAtom{pred: a.Pred, idbID: -1, tab: tabID[a.Pred], args: args(a.Args)}
			if id, ok := idbID[a.Pred]; ok {
				sa.idbID = id
			}
			src.maxAr = max(src.maxAr, len(sa.args))
			src.atoms = append(src.atoms, sa)
			continue
		}
		c := cCons{l: term(b.Constraint.Left), r: term(b.Constraint.Right), neq: b.Constraint.Neq}
		if c.l.varID < 0 && c.r.varID < 0 {
			// Both sides constant: decide once.
			if (c.l.val == c.r.val) == c.neq {
				src.never = true
			}
			continue
		}
		src.cons = append(src.cons, c)
	}
	src.nv = len(vars)
	return src
}

// Leads for order other than a body atom's position.
const (
	headLead = -1 // the head seed leads
	noLead   = -2 // nothing leads: the form round 1 and the naive loop fire
)

// order returns the order src's atoms are joined in: the leading atom
// first (lead >= 0 a body atom; headLead the head seed, -1 in the result:
// a synthetic atom over the head's own arguments — fired with it reading a
// list of candidate head tuples, the rule derives exactly the candidates it
// can derive; noLead none), then at each step the atom with the most
// columns bound by then. Ties go to the smaller size[i] when size is
// non-nil, then to src's own order. Only the unled form passes sizes: its
// IDB atoms are empty when it fires, a led form's are not.
func (src *cSrc) order(lead int, size []int) []int {
	bound := make([]bool, src.nv)
	placed := make([]bool, len(src.atoms))
	order := make([]int, 0, len(src.atoms)+1)
	place := func(i int, args []cTerm) {
		for _, t := range args {
			if t.varID >= 0 {
				bound[t.varID] = true
			}
		}
		order = append(order, i)
	}
	switch {
	case lead == headLead:
		place(-1, src.head)
	case lead >= 0:
		placed[lead] = true
		place(lead, src.atoms[lead].args)
	}
	for {
		best, bestBound := -1, -1
		for i := range src.atoms {
			if placed[i] {
				continue
			}
			n := 0
			for _, t := range src.atoms[i].args {
				if t.varID < 0 || bound[t.varID] {
					n++
				}
			}
			if n > bestBound || n == bestBound && size != nil && size[i] < size[best] {
				best, bestBound = i, n
			}
		}
		if best < 0 {
			return order
		}
		placed[best] = true
		place(best, src.atoms[best].args)
	}
}

// sizes returns, per atom of src, its relation's size at compile time: 0
// for a predicate of idb (empty when the unled form fires), else its size
// in db (0 when db is nil or lacks it).
func (src *cSrc) sizes(idb map[string]bool, db *Database) []int {
	size := make([]int, len(src.atoms))
	for i, a := range src.atoms {
		if idb[a.pred] || db == nil {
			continue
		}
		if r := db.Relation(a.pred); r != nil {
			size[i] = r.Size()
		}
	}
	return size
}

// seedRule renders order's head-seeded order of r as a rule: a leading
// seedPred atom over the head's arguments, then r's atoms in that order,
// then its constraints. origin[i] is the position in r's body of the
// result's atom i, -1 for the seed.
func seedRule(r Rule) (Rule, []int) {
	origin := translate(0, r, nil, nil).order(headLead, nil)
	atoms := r.Atoms()
	out := Rule{Head: r.Head}
	for _, o := range origin {
		a := &Atom{Pred: seedPred, Args: r.Head.Args}
		if o >= 0 {
			a = &atoms[o]
		}
		out.Body = append(out.Body, BodyItem{Atom: a})
	}
	for _, b := range r.Body {
		if b.Constraint != nil {
			out.Body = append(out.Body, b)
		}
	}
	return out, origin
}

// schedule compiles src with its atoms joined in the given order (nil: as
// they stand; -1 in it: the head seed): what each level binds, probes and
// checks, and where each constraint is first decidable.
func (src *cSrc) schedule(order []int) *cRule {
	n := len(src.atoms)
	if order != nil {
		n = len(order)
	}
	cr := &cRule{cSrc: src, atoms: make([]cAtom, n), origin: order}
	// Bind level of each variable: the first atom containing it, or, for
	// variables in no atom, n + its position in the free list.
	level := make([]int, src.nv)
	for v := range level {
		level[v] = -1
	}
	width := 0
	for ai := range cr.atoms {
		ca := &cr.atoms[ai]
		ca.cSrcAtom = cSrcAtom{pred: seedPred, idbID: -1, args: src.head}
		if o := cr.from(ai); o >= 0 {
			ca.cSrcAtom = src.atoms[o]
		}
		ca.arity = len(ca.args)
		width += ca.arity
		for _, t := range ca.args {
			if t.varID >= 0 && level[t.varID] < 0 {
				level[t.varID] = ai
			}
		}
	}
	for v := range level {
		if level[v] < 0 {
			level[v] = n + len(cr.free)
			cr.free = append(cr.free, v)
		}
	}
	// One backing array each for the probe patterns and the binds of all
	// atoms; checks are rare and grow their own.
	pats := make([]cPat, 0, width)
	binds := make([]cAction, 0, width)
	var checks []cAction
	for ai := range cr.atoms {
		ca := &cr.atoms[ai]
		p0, b0, c0 := len(pats), len(binds), len(checks)
		for i, t := range ca.args {
			switch {
			case t.varID < 0 || level[t.varID] < ai:
				ca.mask |= 1 << uint(i)
				pats = append(pats, cPat{pos: i, t: t})
			case slices.ContainsFunc(binds[b0:], func(b cAction) bool { return b.varID == t.varID }):
				checks = append(checks, cAction{pos: i, varID: t.varID})
			default:
				binds = append(binds, cAction{pos: i, varID: t.varID})
			}
		}
		ca.pat = pats[p0:len(pats):len(pats)]
		ca.binds = binds[b0:len(binds):len(binds)]
		ca.checks = checks[c0:len(checks):len(checks)]
	}
	// Schedule each constraint at the level where both sides are bound.
	cr.consAt = make([][]cCons, n+len(cr.free))
	for _, c := range src.cons {
		ready := -1
		if c.l.varID >= 0 {
			ready = level[c.l.varID]
		}
		if c.r.varID >= 0 {
			ready = max(ready, level[c.r.varID])
		}
		cr.consAt[ready] = append(cr.consAt[ready], c)
	}
	return cr
}

// from returns the position in the source's body of the form's atom ai,
// -1 for the head seed.
func (cr *cRule) from(ai int) int {
	if cr.origin == nil {
		return ai
	}
	return cr.origin[ai]
}

// compileLed compiles rule ri led by its body atom lead (by the head seed
// when lead is headLead) and resolves the form against the bound database.
func (e *evaluator) compileLed(ri, lead int) *cRule {
	src := e.rules[ri].cSrc
	cr := src.schedule(src.order(lead, nil))
	cr.led = true
	if lead == headLead {
		cr.skip = 1
	}
	e.forms = append(e.forms, cr)
	e.resolve(cr)
	return cr
}

// Join is a rule's compiled form for an executor outside this package
// (internal/stream): the rule's unled form, as Eval's round 1 fires it, so
// both executors join the body in the same order, at the same levels, with
// the same probe masks, binds, checks and constraint placement. It is
// read-only and may be shared; each enumeration brings its own environment
// of Vars() entries. Atom ai is level ai; the free variables (bound by no
// atom) follow the last atom, in Free's order.
type Join struct{ cr *cRule }

// CompileJoin compiles r in the order Eval gives its unled form when r is
// a rule of a program whose IDB predicates are idb, evaluated over db: an
// idb atom counts as empty, any other as its relation in db.
func CompileJoin(r Rule, idb map[string]bool, db *Database) Join {
	src := translate(0, r, nil, nil)
	return Join{src.schedule(src.order(noLead, src.sizes(idb, db)))}
}

// Dead reports that a constraint between two constants fails: the rule
// derives nothing.
func (j Join) Dead() bool { return j.cr.never }

// Vars is the environment's size: the rule's distinct variables.
func (j Join) Vars() int { return j.cr.nv }

// Atoms is the number of body atoms.
func (j Join) Atoms() int { return len(j.cr.atoms) }

// Origin is the position in r's body (among its atoms) of atom ai.
func (j Join) Origin(ai int) int { return j.cr.from(ai) }

// Pred is atom ai's predicate.
func (j Join) Pred(ai int) string { return j.cr.atoms[ai].pred }

// Arity is atom ai's width.
func (j Join) Arity(ai int) int { return j.cr.atoms[ai].arity }

// Mask is atom ai's probe mask: bit i is set when argument i is a constant
// or a variable an earlier level binds.
func (j Join) Mask(ai int) uint64 { return j.cr.atoms[ai].mask }

// Indexed reports whether atom ai is looked up through a join index: some
// but not all of its columns are bound. Bound on none it is scanned, bound
// on all it is a membership test on the relation's tuple set.
func (j Join) Indexed(ai int) bool { return j.cr.atoms[ai].indexed() }

// Pattern writes atom ai's probe values under env into the mask positions
// of pat.
func (j Join) Pattern(ai int, env []int, pat Tuple) {
	for _, p := range j.cr.atoms[ai].pat {
		pat[p.pos] = p.t.eval(env)
	}
}

// Apply extends env with tup, a tuple agreeing with atom ai's pattern (the
// probe-mask positions are not looked at): it binds the atom's
// first-occurrence variables and reports whether its repeated variables
// agree and the constraints decided at level ai hold. A variable is only
// ever read at a level below its bind, so a rejected candidate leaves
// nothing to undo.
func (j Join) Apply(ai int, tup Tuple, env []int) bool {
	a := &j.cr.atoms[ai]
	for _, b := range a.binds {
		env[b.varID] = tup[b.pos]
	}
	for _, c := range a.checks {
		if env[c.varID] != tup[c.pos] {
			return false
		}
	}
	return consOK(j.cr.consAt[ai], env)
}

// Free lists the variables bound by no atom, which range over the
// universe; treat it as read-only.
func (j Join) Free() []int { return j.cr.free }

// FreeOK reports whether the constraints decided once Free()[k] is bound
// hold under env.
func (j Join) FreeOK(k int, env []int) bool {
	return consOK(j.cr.consAt[len(j.cr.atoms)+k], env)
}

// Head writes the head tuple under env into out.
func (j Join) Head(env []int, out Tuple) {
	for i, t := range j.cr.head {
		out[i] = t.eval(env)
	}
}

// ProbeMasks returns, per body atom of r, its probe mask with the atoms
// joined in the order they stand: bit i set means argument i is a constant
// or a variable bound by an earlier atom, so it is part of the indexed
// lookup. internal/plan's cost model describes its orders with it.
func ProbeMasks(r Rule) []uint64 {
	cr := translate(0, r, nil, nil).schedule(nil)
	masks := make([]uint64, len(cr.atoms))
	for ai := range masks {
		masks[ai] = cr.atoms[ai].mask
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
