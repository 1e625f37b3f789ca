package stream

import (
	"repro/internal/datalog"
)

// Operators. A rule body compiles into a chain of environment operators
// sharing one flat []int environment (exactly the evaluator's join loop,
// made resumable): each next() call advances the chain depth-first to the
// next satisfying assignment, mutating the shared environment in place.
// Because every variable read happens at a level where it is statically
// bound — the same invariant the compiled-rule scheduler relies on — stale
// entries from abandoned branches are harmless and no unbinding happens on
// backtrack.
//
// Environment ownership rule. The shared env has exactly one writer per
// position (the operator whose level binds that variable), and an
// operator may assume its upstream-bound positions hold the values of the
// most recent successful up.next() — that is what probe patterns and
// checks compare against. Two obligations follow:
//
//  1. Snapshot on banking. An operator that remembers a row across pulls
//     (the symmetric hash join's left table and pending pairs) must copy
//     the env at banking time; a banked alias would be silently rewritten
//     by later upstream pulls.
//  2. Restore on resume. An operator that overwrites upstream-owned
//     positions (the SHJ replaying a banked row for emission) must restore
//     the live upstream env — the snapshot taken at the last successful
//     up.next() — before pulling upstream again, or the upstream chain's
//     checks run against a stale environment and drop or misroute rows.
//
// envSnapshotted (used by the tests' checkedEnvOp) asserts obligation 2 at
// every resume. Operators that must remember rows across pulls (the
// symmetric hash join's tables, spooled relations, distinct-key sets) copy
// what they keep and report it to the tracker's buffered counter.

// envOp advances the shared environment to the next satisfying row.
type envOp interface {
	next() bool
}

// unitOp emits the empty environment once — the source for bodies with no
// atoms (constant heads, seeded magic facts).
type unitOp struct {
	t    *tracker
	done bool
}

func (o *unitOp) next() bool {
	if o.done || !o.t.tick() {
		return false
	}
	o.done = true
	return true
}

// relSlot is a materialized predicate: an EDB relation from the database,
// or an intermediate spooled on first use by draining its producer
// pipeline. The spool is lazy so a limit reached upstream can leave it
// unfilled.
type relSlot struct {
	t    *tracker
	rel  *datalog.Relation
	fill func() *datalog.Relation // non-nil until spooled
}

func (s *relSlot) get() *datalog.Relation {
	if s.fill != nil {
		s.rel = s.fill()
		s.fill = nil
	}
	return s.rel
}

// candidates are the tuples an atom is tried against next: the result of
// one index probe, or — for an atom with no bound column — a scan of the
// relation's buckets in place. Storage order is a function of the
// relation's history, so repeated runs explore (and the SHJ banks) rows in
// the same order.
type candidates struct {
	list []datalog.Tuple
	i    int
	scan datalog.Cursor
}

// probe points c at the tuples of rel matching pat on mask.
func (c *candidates) probe(rel *datalog.Relation, pat datalog.Tuple, mask uint64) {
	if mask == 0 {
		*c = candidates{scan: rel.Cursor()}
		return
	}
	*c = candidates{list: rel.Matches(pat, mask)}
}

func (c *candidates) next() (datalog.Tuple, bool) {
	if c.i < len(c.list) {
		c.i++
		return c.list[c.i-1], true
	}
	return c.scan.Next()
}

// envSnapshotted reports whether env matches the snapshot want at the
// given owned positions — the variable ids bound by the upstream levels of
// an operator being resumed. It is the checkable form of the env-ownership
// rule's obligation 2: a consumer that overwrote upstream-owned positions
// must have restored them before pulling upstream again. Exposed for the
// package's checkedEnvOp test harness.
func envSnapshotted(env, want []int, owned []int) bool {
	for _, i := range owned {
		if env[i] != want[i] {
			return false
		}
	}
	return true
}

// scanOp is a first-atom source over a materialized relation: one probe on
// the constant positions, then a filtered scan of the candidates.
type scanOp struct {
	t       *tracker
	a       *sAtom
	slot    *relSlot
	env     []int
	cons    []sCons
	cands   candidates
	started bool
}

func (o *scanOp) next() bool {
	if !o.started {
		o.started = true
		pat := make(datalog.Tuple, o.a.arity)
		for _, p := range o.a.pat {
			pat[p.pos] = p.t.eval(o.env)
		}
		o.cands.probe(o.slot.get(), pat, o.a.mask)
	}
	for {
		tup, ok := o.cands.next()
		if !ok || !o.t.tick() {
			return false
		}
		if applyAtom(o.a, tup, o.env) && consOK(o.cons, o.env) {
			return true
		}
	}
}

// streamSrcOp is a first-atom source pulling directly from a producer
// pipeline (an inlined intermediate predicate).
type streamSrcOp struct {
	t    *tracker
	a    *sAtom
	src  *predStream
	env  []int
	cons []sCons
}

func (o *streamSrcOp) next() bool {
	for {
		if !o.t.tick() {
			return false
		}
		tup, ok := o.src.Next()
		if !ok {
			return false
		}
		// First-atom pattern positions are constants; verify them.
		match := true
		for _, p := range o.a.pat {
			if tup[p.pos] != p.t.eval(o.env) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if applyAtom(o.a, tup, o.env) && consOK(o.cons, o.env) {
			return true
		}
	}
}

// probeOp joins the upstream rows against a materialized relation by
// per-row index probe (mask != 0) or in-place scan (mask == 0).
type probeOp struct {
	t     *tracker
	up    envOp
	a     *sAtom
	slot  *relSlot
	env   []int
	cons  []sCons
	pat   datalog.Tuple
	cands candidates
}

func (o *probeOp) next() bool {
	for {
		for {
			tup, ok := o.cands.next()
			if !ok {
				break
			}
			if !o.t.tick() {
				return false
			}
			if applyAtom(o.a, tup, o.env) && consOK(o.cons, o.env) {
				return true
			}
		}
		if o.t.err != nil || !o.up.next() {
			return false
		}
		for _, p := range o.a.pat {
			o.pat[p.pos] = p.t.eval(o.env)
		}
		o.cands.probe(o.slot.get(), o.pat, o.a.mask)
	}
}

// shjPending is one matched (left row, right tuple) pair awaiting
// emission.
type shjPending struct {
	env []int
	tup datalog.Tuple
}

// shjOp is a symmetric hash join between the upstream environment rows
// (left) and a producer pipeline (right). Both sides are consumed
// incrementally: each arriving left row is hashed on the atom's probe
// columns and matched against the right tuples seen so far, and vice
// versa, so matches emit as soon as both halves exist — neither side is
// required to finish first. Duplicate join keys on either side are kept
// (each table holds a list per key) and every cross pair is emitted.
type shjOp struct {
	t    *tracker
	up   envOp
	a    *sAtom
	src  *predStream
	env  []int
	cons []sCons

	left  map[datalog.TupleKey][][]int         // key -> left env rows (snapshots, never aliases of env)
	right map[datalog.TupleKey][]datalog.Tuple // key -> right tuples
	pat   datalog.Tuple

	// live snapshots the env as of the last successful up.next(): the state
	// the upstream chain expects to find when it is resumed. Emitting a
	// banked pending pair overwrites upstream-owned env positions with a
	// stale row, so pullLeftRow restores live before pulling again (the
	// ops-comment env-ownership rule, obligation 2).
	live     []int
	envStale bool

	pending   []shjPending
	pi        int
	leftDone  bool
	rightDone bool
	pullRight bool // alternate sides while both are live
}

func (o *shjOp) next() bool {
	for {
		// Drain pending matches first. Pairs are emitted in arrival order
		// (left rows in upstream order, right tuples in producer order);
		// o.left and o.right are only ever probed by join key, never
		// iterated, so emission order is independent of map iteration.
		for o.pi < len(o.pending) {
			if !o.t.tick() {
				return false
			}
			p := o.pending[o.pi]
			o.pi++
			copy(o.env, p.env)
			o.envStale = true
			if applyAtom(o.a, p.tup, o.env) && consOK(o.cons, o.env) {
				return true
			}
		}
		o.pending = o.pending[:0]
		o.pi = 0
		if o.t.err != nil || (o.leftDone && o.rightDone) {
			return false
		}
		// Pull one row from a live side, alternating while both remain.
		fromRight := o.pullRight
		if o.leftDone {
			fromRight = true
		} else if o.rightDone {
			fromRight = false
		}
		o.pullRight = !fromRight
		if fromRight {
			o.pullRightRow()
		} else {
			o.pullLeftRow()
		}
	}
}

func (o *shjOp) pullLeftRow() {
	if o.envStale {
		// Undo the pending-pair replay before the upstream chain resumes:
		// its probe patterns and checks read the positions it bound on its
		// last successful pull, not whatever banked row was emitted last.
		copy(o.env, o.live)
		o.envStale = false
	}
	if !o.up.next() {
		o.leftDone = true
		return
	}
	for _, p := range o.a.pat {
		o.pat[p.pos] = p.t.eval(o.env)
	}
	key := datalog.KeyProjected(o.pat, o.a.mask)
	// Snapshot the row: the bank and the pending pairs must not alias the
	// shared env, which upstream operators keep mutating.
	row := make([]int, len(o.env))
	copy(row, o.env)
	copy(o.live, o.env)
	if !o.rightDone {
		o.left[key] = append(o.left[key], row)
		o.t.addBuffered(1)
	}
	for _, tup := range o.right[key] {
		o.pending = append(o.pending, shjPending{env: row, tup: tup})
	}
}

func (o *shjOp) pullRightRow() {
	for {
		tup, ok := o.src.Next()
		if !ok {
			o.rightDone = true
			return
		}
		// Within-atom repeated variables constrain the tuple alone;
		// filter before hashing so the tables hold only joinable rows.
		selfOK := true
		for i, c := range o.a.checks {
			if bp := o.a.checkBindPos[i]; bp >= 0 && tup[c.pos] != tup[bp] {
				selfOK = false
				break
			}
		}
		if !selfOK {
			continue
		}
		key := datalog.KeyProjected(tup, o.a.mask)
		if !o.leftDone {
			o.right[key] = append(o.right[key], tup)
			o.t.addBuffered(1)
		}
		if rows := o.left[key]; len(rows) > 0 {
			for _, row := range rows {
				o.pending = append(o.pending, shjPending{env: row, tup: tup})
			}
			return
		}
		if o.leftDone {
			// Nothing stored and nothing matched: this tuple is dead;
			// keep pulling so exhaustion is reached.
			continue
		}
		return
	}
}

// freeOp enumerates one universe-ranging variable over {0..n-1}, applying
// the constraints scheduled at its level.
type freeOp struct {
	t       *tracker
	up      envOp
	varID   int
	n       int
	cons    []sCons
	env     []int
	val     int
	started bool
}

func (o *freeOp) next() bool {
	for {
		if o.started {
			for o.val < o.n {
				if !o.t.tick() {
					return false
				}
				o.env[o.varID] = o.val
				o.val++
				if consOK(o.cons, o.env) {
					return true
				}
			}
		}
		if o.t.err != nil || !o.up.next() {
			return false
		}
		o.started = true
		o.val = 0
	}
}

// applyAtom binds and checks a candidate tuple against the environment;
// it returns false when a repeated-variable check fails. Binds are
// unconditional writes (first occurrences), applied before checks.
func applyAtom(a *sAtom, tup datalog.Tuple, env []int) bool {
	for _, b := range a.binds {
		env[b.varID] = tup[b.pos]
	}
	for _, c := range a.checks {
		if tup[c.pos] != env[c.varID] {
			return false
		}
	}
	return true
}

// rulePipe is one rule's compiled pipeline.
type rulePipe struct {
	op   envOp
	env  []int
	head []sTerm
}

// predStream unions a predicate's rule pipelines, projects head tuples,
// deduplicates on the packed key, and (for the query predicate) applies
// the goal filter and the answer limit. It is the producer side every
// consumer — inline source, hash join, spool — pulls from.
type predStream struct {
	t       *tracker
	pred    string
	pipes   []*rulePipe
	cur     int
	seen    map[datalog.TupleKey]struct{}
	scratch datalog.Tuple
	filter  *datalog.Goal
	limit   int
	emitted int
	done    bool
}

func (ps *predStream) Next() (datalog.Tuple, bool) {
	if ps.done || ps.t.err != nil {
		return nil, false
	}
	if ps.limit > 0 && ps.emitted >= ps.limit {
		ps.done = true
		return nil, false
	}
	for ps.cur < len(ps.pipes) {
		pipe := ps.pipes[ps.cur]
		for pipe.op.next() {
			for i, h := range pipe.head {
				ps.scratch[i] = h.eval(pipe.env)
			}
			if ps.filter != nil && !ps.filter.Matches(ps.scratch) {
				continue
			}
			k := datalog.KeyOf(ps.scratch)
			if _, dup := ps.seen[k]; dup {
				continue
			}
			ps.seen[k] = struct{}{}
			ps.t.addBuffered(1)
			out := make(datalog.Tuple, len(ps.scratch))
			copy(out, ps.scratch)
			ps.emitted++
			return out, true
		}
		if ps.t.err != nil {
			return nil, false
		}
		ps.cur++
	}
	ps.done = true
	return nil, false
}

func (ps *predStream) close() {
	ps.done = true
	ps.t.addBuffered(-int64(len(ps.seen)))
	ps.seen = nil
}

// builder assembles the iterator tree for one query, walking rules in
// topological order through lazily filled slots.
type builder struct {
	t     *tracker
	an    *analysis
	db    *datalog.Database
	slots map[string]*relSlot
	empty map[int]*datalog.Relation // shared empty EDB relations by arity
}

// slot returns the materialized handle for a predicate: the database
// relation for EDBs (an absent EDB yields a shared empty relation), or a
// lazily spooled relation for materialized intermediates.
func (b *builder) slot(pred string, arity int) *relSlot {
	if s, ok := b.slots[pred]; ok {
		return s
	}
	s := &relSlot{t: b.t}
	if !b.an.reach[pred] {
		// EDB predicate.
		if rel := b.db.Relation(pred); rel != nil {
			s.rel = rel
		} else {
			if b.empty == nil {
				b.empty = map[int]*datalog.Relation{}
			}
			if b.empty[arity] == nil {
				b.empty[arity] = datalog.NewDLRelation(arity)
			}
			s.rel = b.empty[arity]
		}
	} else {
		src := b.predStream(pred)
		t := b.t
		s.fill = func() *datalog.Relation {
			rel := datalog.NewDLRelation(arity)
			for {
				tup, ok := src.Next()
				if !ok {
					break
				}
				rel.Add(tup)
			}
			// The spool's distinct set moves into the relation; the
			// producer's key set is released.
			src.close()
			t.addBuffered(int64(rel.Size()))
			return rel
		}
	}
	b.slots[pred] = s
	return s
}

// predStream builds the producer pipeline for a reachable IDB predicate.
func (b *builder) predStream(pred string) *predStream {
	idxs := b.an.ruleIdx[pred]
	ps := &predStream{t: b.t, pred: pred, seen: map[datalog.TupleKey]struct{}{}}
	for _, ri := range idxs {
		sr := b.an.compiled[ri]
		if sr.never {
			continue
		}
		pipe := b.rulePipe(ri, sr)
		ps.pipes = append(ps.pipes, pipe)
		if ps.scratch == nil {
			ps.scratch = make(datalog.Tuple, len(sr.head))
		}
	}
	if ps.scratch == nil {
		// Every rule dead: empty stream of the right arity.
		ps.scratch = make(datalog.Tuple, len(b.an.eff.Rules[idxs[0]].Head.Args))
	}
	return ps
}

// testWrapUpstream, when non-nil (set only by tests), wraps the upstream
// operator handed to a symmetric hash join so the env-ownership rule can
// be asserted at every resume (see checkedEnvOp in the tests).
var testWrapUpstream func(up envOp, env []int, owned []int) envOp

// upstreamOwned lists the variable ids bound by the levels before atom ai
// — the env positions a consumer at level ai must leave intact (or
// restore) whenever it resumes its upstream.
func upstreamOwned(sr *sRule, ai int) []int {
	var owned []int
	for k := 0; k < ai; k++ {
		for _, bnd := range sr.atoms[k].binds {
			owned = append(owned, bnd.varID)
		}
	}
	return owned
}

// rulePipe compiles one rule into its operator chain.
func (b *builder) rulePipe(ri int, sr *sRule) *rulePipe {
	env := make([]int, sr.nv)
	idb := b.an.reach
	var op envOp
	if len(sr.atoms) == 0 {
		op = &unitOp{t: b.t}
	}
	for ai := range sr.atoms {
		a := &sr.atoms[ai]
		streamed := idb[a.pred] && b.an.decision[a.pred] == ExecStream
		cons := sr.consAt[ai]
		if ai == 0 {
			if streamed {
				op = &streamSrcOp{t: b.t, a: a, src: b.predStream(a.pred), env: env, cons: cons}
			} else {
				op = &scanOp{t: b.t, a: a, slot: b.slot(a.pred, a.arity), env: env, cons: cons}
			}
			continue
		}
		if streamed {
			if testWrapUpstream != nil {
				op = testWrapUpstream(op, env, upstreamOwned(sr, ai))
			}
			op = &shjOp{
				t: b.t, up: op, a: a, src: b.predStream(a.pred), env: env, cons: cons,
				left:  map[datalog.TupleKey][][]int{},
				right: map[datalog.TupleKey][]datalog.Tuple{},
				pat:   make(datalog.Tuple, a.arity),
				live:  make([]int, len(env)),
			}
		} else {
			op = &probeOp{
				t: b.t, up: op, a: a, slot: b.slot(a.pred, a.arity), env: env, cons: cons,
				pat: make(datalog.Tuple, a.arity),
			}
		}
	}
	for k, varID := range sr.free {
		op = &freeOp{t: b.t, up: op, varID: varID, n: b.db.N, cons: sr.consAt[len(sr.atoms)+k], env: env}
	}
	return &rulePipe{op: op, env: env, head: sr.head}
}
