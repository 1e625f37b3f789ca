package stream

import (
	"repro/internal/datalog"
)

// Operators. A rule body runs as a chain of environment operators sharing
// one flat []int environment — the evaluator's join loop (datalog's
// fireRule) made resumable, over the same compiled form (datalog.Join):
// each next() call advances the chain depth-first to the next satisfying
// assignment, mutating the shared environment in place. The chain keeps
// the loop's one invariant: every variable is read only at levels below
// the one that binds it, and an operator writes only the variables its own
// level binds, so stale entries from abandoned branches are harmless and
// nothing is unbound on backtrack. No operator remembers an environment
// across pulls; what must be remembered (spooled relations, distinct-key
// sets) is copied and reported to the tracker's buffered counter.

// envOp advances the shared environment to the next satisfying row.
type envOp interface {
	next() bool
}

// unitOp emits the empty environment once — the upstream of a rule's first
// atom, and the whole body of a rule with no atoms (constant heads, seeded
// magic facts).
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

// candidates are the tuples an atom is tried against next: a scan of the
// relation's buckets in place when no column is bound, the pattern itself
// when every column is and the relation holds it (a membership test, no
// index), otherwise the result of one index probe. Storage order is a
// function of the relation's history, so repeated runs explore rows in the
// same order.
type candidates struct {
	list []datalog.Tuple
	i    int
	scan datalog.Cursor
	hit  [1]datalog.Tuple
}

// probe points c at the tuples of rel that agree with pat on mask; indexed
// says whether that takes a join index (datalog.Join.Indexed).
func (c *candidates) probe(rel *datalog.Relation, pat datalog.Tuple, mask uint64, indexed bool) {
	switch {
	case mask == 0:
		*c = candidates{scan: rel.Cursor()}
	case indexed:
		*c = candidates{list: rel.Matches(pat, mask)}
	default:
		*c = candidates{}
		if rel.Has(pat) {
			c.hit[0] = pat
			c.list = c.hit[:]
		}
	}
}

func (c *candidates) next() (datalog.Tuple, bool) {
	if c.i < len(c.list) {
		c.i++
		return c.list[c.i-1], true
	}
	return c.scan.Next()
}

// probeOp joins the upstream rows against atom ai's materialized relation:
// per upstream row it fills the atom's probe pattern, looks the candidates
// up and applies them one by one.
type probeOp struct {
	t     *tracker
	up    envOp
	j     datalog.Join
	ai    int
	slot  *relSlot
	env   []int
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
			if o.j.Apply(o.ai, tup, o.env) {
				return true
			}
		}
		if o.t.err != nil || !o.up.next() {
			return false
		}
		o.j.Pattern(o.ai, o.env, o.pat)
		o.cands.probe(o.slot.get(), o.pat, o.j.Mask(o.ai), o.j.Indexed(o.ai))
	}
}

// streamSrcOp is a first atom pulling directly from a producer pipeline
// (an inlined intermediate predicate); its pattern holds constants only.
type streamSrcOp struct {
	t    *tracker
	j    datalog.Join
	src  *predStream
	env  []int
	pat  datalog.Tuple
	mask uint64
}

func (o *streamSrcOp) next() bool {
pull:
	for {
		if !o.t.tick() {
			return false
		}
		tup, ok := o.src.Next()
		if !ok {
			return false
		}
		for i, v := range o.pat {
			if o.mask>>uint(i)&1 != 0 && tup[i] != v {
				continue pull
			}
		}
		if o.j.Apply(0, tup, o.env) {
			return true
		}
	}
}

// freeOp enumerates free variable k of the rule over {0..n-1}, applying
// the constraints decided at its level.
type freeOp struct {
	t       *tracker
	up      envOp
	j       datalog.Join
	k       int
	n       int
	env     []int
	val     int
	started bool
}

func (o *freeOp) next() bool {
	v := o.j.Free()[o.k]
	for {
		if o.started {
			for o.val < o.n {
				if !o.t.tick() {
					return false
				}
				o.env[v] = o.val
				o.val++
				if o.j.FreeOK(o.k, o.env) {
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

// rulePipe is one rule's operator chain and the environment it fills.
type rulePipe struct {
	op  envOp
	env []int
	j   datalog.Join
}

// predStream unions a predicate's rule pipelines, projects head tuples,
// deduplicates on the packed key, and (for the query predicate) applies
// the goal filter and the answer limit. It is the producer side every
// consumer — inline source or spool — pulls from.
type predStream struct {
	t       *tracker
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
			pipe.j.Head(pipe.env, ps.scratch)
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

// builder assembles the iterator tree for one query, from the query
// predicate down, through lazily filled slots.
type builder struct {
	t     *tracker
	an    *analysis
	db    *datalog.Database
	eval  datalog.Options // the fixpoint's options: the stream's, no planner
	slots map[string]*relSlot
	// streams holds every producer pipeline built, by predicate (each
	// predicate outside the fixpoint has at most one).
	streams map[string]*predStream
	// fixed is the recursive component's fixpoint, nil until first use.
	fixed map[string]*datalog.Relation
	empty map[int]*datalog.Relation // shared empty relations by arity
}

// emptyRel returns the shared empty relation of an arity.
func (b *builder) emptyRel(arity int) *datalog.Relation {
	if b.empty == nil {
		b.empty = map[int]*datalog.Relation{}
	}
	if b.empty[arity] == nil {
		b.empty[arity] = datalog.NewDLRelation(arity)
	}
	return b.empty[arity]
}

// fixpoint returns the recursive component's relations, evaluating its
// rules on first use: one datalog.EvalContext over the already-planned
// rules, with no planner, so planning is not repeated. The relations are
// held for the stream's life and count toward Buffered. An evaluation
// error (a cancelled context, say) becomes the stream's Err and leaves the
// component empty.
func (b *builder) fixpoint() map[string]*datalog.Relation {
	if b.fixed != nil {
		return b.fixed
	}
	b.fixed = map[string]*datalog.Relation{}
	res, err := datalog.EvalContext(b.t.ctx, b.an.fixProg, b.db, b.eval)
	if err != nil {
		if b.t.err == nil {
			b.t.err = err
		}
		return b.fixed
	}
	b.fixed = res.IDB
	b.t.rounds = int64(res.Rounds)
	for _, rel := range res.IDB {
		b.t.addBuffered(int64(rel.Size()))
	}
	return b.fixed
}

// slot returns the materialized handle for a predicate: the database
// relation for EDBs (an absent EDB yields a shared empty relation), the
// fixpoint's relation for the recursive component, or a lazily spooled
// relation for materialized intermediates.
func (b *builder) slot(pred string, arity int) *relSlot {
	if s, ok := b.slots[pred]; ok {
		return s
	}
	s := &relSlot{t: b.t}
	switch {
	case !b.an.reach[pred]: // EDB predicate
		if s.rel = b.db.Relation(pred); s.rel == nil {
			s.rel = b.emptyRel(arity)
		}
	case b.an.fix[pred]:
		s.fill = func() *datalog.Relation {
			if rel := b.fixpoint()[pred]; rel != nil {
				return rel
			}
			return b.emptyRel(arity)
		}
	default:
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

// predStream builds the producer pipeline for a reachable IDB predicate: its
// rules' pipelines or, for a target in the recursive component, the copy
// rule's scan of its fixpoint relation.
func (b *builder) predStream(pred string) *predStream {
	ps := &predStream{t: b.t, seen: map[datalog.TupleKey]struct{}{},
		scratch: make(datalog.Tuple, b.an.arity[pred])}
	if b.an.fix[pred] {
		ps.pipes = []*rulePipe{b.rulePipe(b.an.copy)}
	}
	for _, ri := range b.an.ruleIdx[pred] {
		if j := b.an.joins[ri]; !j.Dead() {
			ps.pipes = append(ps.pipes, b.rulePipe(j))
		}
	}
	b.streams[pred] = ps
	return ps
}

// rulePipe builds one rule's operator chain: a unit source, then per atom
// an inlined producer (the first atom of an inlined intermediate's one
// consumer) or a probe of its materialized relation, then the free
// variables.
func (b *builder) rulePipe(j datalog.Join) *rulePipe {
	env := make([]int, j.Vars())
	var op envOp = &unitOp{t: b.t}
	for ai := 0; ai < j.Atoms(); ai++ {
		pred, pat := j.Pred(ai), make(datalog.Tuple, j.Arity(ai))
		if ai == 0 && b.an.inline[pred] {
			j.Pattern(0, env, pat)
			op = &streamSrcOp{t: b.t, j: j, src: b.predStream(pred), env: env, pat: pat, mask: j.Mask(0)}
			continue
		}
		op = &probeOp{t: b.t, up: op, j: j, ai: ai, slot: b.slot(pred, j.Arity(ai)), env: env, pat: pat}
	}
	for k := range j.Free() {
		op = &freeOp{t: b.t, up: op, j: j, k: k, n: b.db.N, env: env}
	}
	return &rulePipe{op: op, env: env, j: j}
}
