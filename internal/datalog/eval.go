package datalog

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Result holds the computed least fixpoint.
type Result struct {
	// IDB maps each intensional predicate to its fixpoint relation.
	IDB map[string]*Relation
	// Stage maps each intensional predicate to the stages Θ^n at which its
	// tuples first appear (1-based), matching the paper's stage semantics;
	// see Result.StageOf and Result.EachStage.
	Stage map[string]*StageTable
	// Rounds is the number of iteration rounds executed until stability.
	Rounds int
	// Derivations counts successful rule firings (including duplicates).
	Derivations int
	// Stats holds the per-rule and per-round instrumentation counters.
	Stats *EvalStats

	wit *witnessStore
}

// Goal returns the fixpoint relation of the program goal.
func (res *Result) Goal(p *Program) *Relation { return res.IDB[p.Goal] }

// Eval computes the least fixpoint semantics π^∞ of the program on the
// database (Section 2) with a background context. Missing EDB relations
// are treated as empty; the input database is only read, so concurrent
// evaluations may share one — with UseIndexes, a join index an EDB
// relation lacks is built once, under the relation's lock, and published
// atomically (see Relation).
func Eval(p *Program, db *Database, opt Options) (*Result, error) {
	return EvalContext(context.Background(), p, db, opt)
}

// EvalContext is Eval under a context: cancellation and deadlines are
// checked at every iteration round and between rule-firing tasks in the
// parallel workers, so a runaway fixpoint aborts within one round of the
// context ending. On cancellation it returns ctx.Err() alongside the
// partial Result computed so far (a consistent prefix of the fixpoint:
// whole rounds only, never a half-committed round).
func EvalContext(ctx context.Context, p *Program, db *Database, opt Options) (*Result, error) {
	e, err := newEvaluator(ctx, p, db, opt)
	if err != nil {
		return nil, err
	}
	runErr := e.run()
	res := e.result()
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}

// run executes the configured strategy to the fixpoint, accumulating the
// evaluation's wall time. It returns the context's error on abort.
func (e *evaluator) run() error {
	start := time.Now()
	defer func() { e.elapsedNs += time.Since(start).Nanoseconds() }()
	if e.opt.SemiNaive {
		return e.runSemiNaive()
	}
	return e.runNaive()
}

// newEvaluator validates the program and builds the full evaluation state:
// dense predicate ids, output relations, resolved EDB reads, compiled
// rules, pre-registered indexes and the delta pools. Eval runs it to the
// fixpoint and discards it; Incremental keeps it alive across updates.
func newEvaluator(ctx context.Context, p *Program, db *Database, opt Options) (*evaluator, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := Validate(p); err != nil {
		return nil, err
	}
	if opt.Planner != nil {
		planned, err := opt.Planner.PlanRules(p, db)
		if err != nil {
			return nil, fmt.Errorf("datalog: planner: %w", err)
		}
		if len(planned) > 0 {
			// The planner's contract guarantees the rewritten program computes
			// the same fixpoint, stages and rounds; everything downstream
			// (compilation, stats, provenance rule ids) refers to the planned
			// rules.
			p = &Program{Rules: planned, Goal: p.Goal}
			if err := Validate(p); err != nil {
				return nil, fmt.Errorf("datalog: planner produced invalid program: %w", err)
			}
		}
	}
	arity := p.Arities()
	idbSet := p.IDBs()
	e := &evaluator{ctx: ctx, p: p, db: db, opt: opt, par: opt.workers(), idbSet: idbSet}
	// Intensional predicates get dense ids (sorted for determinism); the
	// id doubles as the predicate's slot in the delta pools.
	e.idbID = make(map[string]int, len(idbSet))
	for name := range idbSet {
		e.idbNames = append(e.idbNames, name)
	}
	sort.Strings(e.idbNames)
	for i, name := range e.idbNames {
		e.idbID[name] = i
	}
	var edbNames []string
	for name := range p.EDBs() {
		edbNames = append(edbNames, name)
	}
	sort.Strings(edbNames)
	e.wit = newWitnessStore(opt.TrackProvenance, e.idbNames, edbNames, arity)
	e.idb = map[string]*Relation{}
	e.stage = map[string]*StageTable{}
	e.idbByID = make([]*Relation, len(e.idbNames))
	for i, name := range e.idbNames {
		r := NewDLRelation(arity[name])
		e.idb[name] = r
		e.idbByID[i] = r
		e.stage[name] = &StageTable{rel: r, wit: e.wit, tab: i}
	}
	e.empty = map[int]*Relation{}
	for _, a := range arity {
		if _, ok := e.empty[a]; !ok {
			e.empty[a] = NewDLRelation(a)
		}
	}
	// EDB relations referenced but absent resolve to a shared empty
	// relation; the caller's database is left untouched.
	e.edb = map[string]*Relation{}
	for _, name := range edbNames {
		r := db.Relation(name)
		if r == nil {
			r = e.empty[arity[name]]
		} else if r.Arity != arity[name] {
			return nil, fmt.Errorf("datalog: EDB %s has arity %d in the database but %d in the program",
				name, r.Arity, arity[name])
		}
		e.edb[name] = r
	}
	e.rules = make([]*cRule, len(p.Rules))
	for ri, r := range p.Rules {
		e.rules[ri] = e.compileRule(ri, r)
	}
	e.wit.setRules(e.rules)
	e.ruleStats = make([]ruleCounters, len(p.Rules))
	if opt.UseIndexes {
		e.prepareIndexes()
	}
	e.deltaPool = [2][]*Relation{
		make([]*Relation, len(e.idbNames)),
		make([]*Relation, len(e.idbNames)),
	}
	return e, nil
}

// result snapshots the evaluator's outputs. The maps are shared with the
// evaluator, so for Incremental the returned view stays live; Stats is a
// fresh copy per call.
func (e *evaluator) result() *Result {
	return &Result{IDB: e.idb, Stage: e.stage, Rounds: e.rounds,
		Derivations: e.derivations, Stats: e.statsSnapshot(), wit: e.wit}
}

// MustEval is Eval with DefaultOptions that panics on error.
func MustEval(p *Program, db *Database) *Result {
	res, err := Eval(p, db, DefaultOptions)
	if err != nil {
		panic("datalog: " + err.Error())
	}
	return res
}

type evaluator struct {
	ctx    context.Context
	p      *Program
	db     *Database
	opt    Options
	par    int
	idbSet map[string]bool

	idbNames []string       // sorted IDB predicate names; position = id
	idbID    map[string]int // predicate name -> dense id

	idb     map[string]*Relation
	idbByID []*Relation
	edb     map[string]*Relation // resolved EDB reads (shared empties when absent)
	empty   map[int]*Relation    // shared read-only empty relation per arity
	stage   map[string]*StageTable
	// wit holds every derived tuple's stage and, with TrackProvenance, its
	// first-derivation witness; see witness.go.
	wit *witnessStore

	// rules holds the compiled form of every program rule; see compile.go.
	// All join masks are known statically from it, so every index can be
	// registered before workers fire in parallel. seeded, compiled only for
	// an Incremental, holds each rule's head-seeded form.
	rules  []*cRule
	seeded []*cRule
	// deltaMasks[id] collects the masks probed on predicate id's delta.
	deltaMasks [][]uint64
	// deltaPool ping-pongs two sets of per-predicate delta relations so
	// steady-state rounds recycle buffers instead of reallocating.
	deltaPool [2][]*Relation
	// outs holds one emission buffer per task of the current round, in
	// task order; the buffers are kept from round to round, so a task slot's
	// capacity tracks the largest emission it has seen.
	outs  []taskOut
	tasks []fireTask

	// Instrumentation accumulators; see stats.go.
	ruleStats     []ruleCounters
	roundStats    []RoundStats
	roundsDropped int64
	elapsedNs     int64

	rounds      int
	derivations int
	// overDeleted and rederived total, over an Incremental's delete runs,
	// the tuples over-deleted and the ones among them that came back.
	overDeleted, rederived int64

	// changes, when non-nil, records every genuinely new IDB tuple the
	// commit lands (the relation's own copy), by dense predicate id.
	// Incremental turns it on around a maintenance run to surface the run's
	// exact view delta (see Incremental.LastDelta); ordinary evaluations
	// leave it nil and pay nothing.
	changes [][]Tuple
}

// fireTask is one unit of per-round work: fire rule ri with body atom
// occurrence deltaIdx reading from the relation rel instead of its usual
// source (-1 for no delta position). rel is an IDB delta in the
// semi-naive loop and an EDB delta when Incremental seeds an insertion.
// seeded fires the rule's head-seeded form instead, whose atom 0 (always
// the delta position) reads rel as the set of candidate heads.
type fireTask struct {
	ri       int
	deltaIdx int
	rel      *Relation
	seeded   bool
}

// compiled returns the compiled rule a task fires.
func (e *evaluator) compiled(tk fireTask) *cRule {
	if tk.seeded {
		return e.seeded[tk.ri]
	}
	return e.rules[tk.ri]
}

// prepareIndexes registers every statically-probed join index up front:
// on IDB relations (then maintained incrementally by commit) and on the
// EDB relations (built once over the stable extensional data). It also
// collects the masks each predicate's delta relations will need.
func (e *evaluator) prepareIndexes() {
	e.deltaMasks = make([][]uint64, len(e.idbNames))
	for _, cr := range e.rules {
		e.registerIndexes(cr)
		for ai := range cr.atoms {
			a := &cr.atoms[ai]
			if a.indexed() && a.idbID >= 0 && !containsMask(e.deltaMasks[a.idbID], a.mask) {
				e.deltaMasks[a.idbID] = append(e.deltaMasks[a.idbID], a.mask)
			}
		}
	}
}

// registerIndexes builds the join index of every indexed atom of cr on the
// relation the atom reads.
func (e *evaluator) registerIndexes(cr *cRule) {
	for ai := range cr.atoms {
		a := &cr.atoms[ai]
		if !a.indexed() {
			continue
		}
		if a.idbID >= 0 {
			e.idbByID[a.idbID].ensureIndex(a.mask)
		} else if a.edbRel != nil {
			a.edbRel.ensureIndex(a.mask)
		}
	}
}

func containsMask(ms []uint64, m uint64) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

func (e *evaluator) runNaive() error {
	tasks := e.allRuleTasks()
	for {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		e.rounds++
		anyNew, err := e.round(tasks, nil)
		if err != nil {
			e.rounds--
			return err
		}
		if !anyNew {
			return nil
		}
		if e.opt.MaxRounds > 0 && e.rounds >= e.opt.MaxRounds {
			return nil
		}
	}
}

func (e *evaluator) runSemiNaive() error {
	// Round 1: full evaluation from empty IDBs (only rules whose IDB
	// atoms can be satisfied — with empty IDBs that means EDB-only rules).
	if err := e.ctx.Err(); err != nil {
		return err
	}
	e.rounds = 1
	anyNew, err := e.round(e.allRuleTasks(), e.deltaPool[0])
	if err != nil {
		e.rounds--
		return err
	}
	if anyNew {
		return e.loopSemiNaive(0)
	}
	return nil
}

// loopSemiNaive runs delta rounds to the fixpoint, reading the first
// round's deltas from deltaPool[cur]. It is the continuation shared by
// the initial evaluation and every incremental update: any caller that
// commits fresh tuples into deltaPool[cur] can resume the fixpoint here.
func (e *evaluator) loopSemiNaive(cur int) error {
	for {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		delta := e.deltaPool[cur]
		e.rounds++
		if e.opt.MaxRounds > 0 && e.rounds > e.opt.MaxRounds {
			e.rounds--
			return nil
		}
		e.tasks = e.tasks[:0]
		for ri, cr := range e.rules {
			for ai := range cr.atoms {
				id := cr.atoms[ai].idbID
				if id < 0 {
					continue
				}
				if d := delta[id]; d != nil && d.Size() > 0 {
					e.tasks = append(e.tasks, fireTask{ri: ri, deltaIdx: ai, rel: d})
				}
			}
		}
		anyNew, err := e.round(e.tasks, e.deltaPool[1-cur])
		if err != nil {
			e.rounds--
			return err
		}
		if !anyNew {
			return nil
		}
		cur = 1 - cur
	}
}

// resumeFixpoint runs the already-scheduled e.tasks as a fresh delta
// round into deltaPool[0] and continues the semi-naive loop to the new
// fixpoint — the continuation Incremental updates re-enter. Wall time is
// accumulated into the evaluator's elapsed total.
func (e *evaluator) resumeFixpoint() error {
	start := time.Now()
	defer func() { e.elapsedNs += time.Since(start).Nanoseconds() }()
	e.rounds++
	anyNew, err := e.round(e.tasks, e.deltaPool[0])
	if err != nil {
		e.rounds--
		return err
	}
	if anyNew {
		return e.loopSemiNaive(0)
	}
	return nil
}

// round fires tasks, commits the emissions into the IDB (and, in the
// semi-naive loop, the delta relations in out) and records the round's
// counters; it reports whether anything new was derived. It aborts without
// committing when the context ends during firing: the round's emissions
// are discarded, so the result stays a whole-rounds-only prefix.
func (e *evaluator) round(tasks []fireTask, out []*Relation) (bool, error) {
	start := time.Now()
	emitted := e.collect(tasks)
	if err := e.ctx.Err(); err != nil {
		return false, err
	}
	e.derivations += emitted
	fresh := e.commit(tasks, out)
	e.recordRound(RoundStats{Round: e.rounds, Tasks: len(tasks),
		Derived: int64(emitted), New: int64(fresh), TimeNs: time.Since(start).Nanoseconds()})
	return fresh > 0, nil
}

// allRuleTasks returns one task per rule with no delta position.
func (e *evaluator) allRuleTasks() []fireTask {
	e.tasks = e.tasks[:0]
	for ri := range e.p.Rules {
		e.tasks = append(e.tasks, fireTask{ri: ri, deltaIdx: -1})
	}
	return e.tasks
}

// collect fires all tasks into e.outs, one buffer per task in task order,
// and merges their firing counters into the per-rule accumulators; it
// returns the number of emissions. With Parallelism > 1 the tasks are
// distributed over a bounded worker pool; since each task emits into its
// own buffer and the commit reads the buffers in task order, the
// sequential emission order is reproduced exactly (and hence identical
// Stage, Rounds and first-derivation witnesses). During firing the workers
// only read the IDB/EDB/delta relations — every join index they probe was
// registered up front — so no synchronization beyond the final join is
// needed. Workers check the context between tasks and stop taking new
// ones once it ends.
func (e *evaluator) collect(tasks []fireTask) int {
	for len(e.outs) < len(tasks) {
		e.outs = append(e.outs, taskOut{})
	}
	outs := e.outs[:len(tasks)]
	for i := range outs {
		outs[i].reset()
	}
	fire := func(i int) {
		tk, o := tasks[i], &outs[i]
		t0 := time.Now()
		e.fireRule(e.compiled(tk), tk.rel, tk.deltaIdx, o)
		o.durNs = time.Since(t0).Nanoseconds()
		o.fired = true
	}
	if workers := min(e.par, len(tasks)); workers <= 1 {
		for i := range tasks {
			if e.ctx.Err() != nil {
				break
			}
			fire(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for e.ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					fire(i)
				}
			}()
		}
		wg.Wait()
	}
	emitted := 0
	for i := range outs {
		o := &outs[i]
		if !o.fired {
			continue
		}
		rc := &e.ruleStats[tasks[i].ri]
		rc.firings++
		rc.derived += int64(len(o.heads))
		rc.probes += o.probes
		rc.timeNs += o.durNs
		emitted += len(o.heads)
	}
	return emitted
}

// taskOut is one task's private output: the head tuples it emitted, in
// emission order, with their witnesses beside them — when witnesses are
// kept, emission j's matched body tuples are body[j*n:(j+1)*n], n being
// the rule's recorded atoms, aliasing the relations' own tuples — and its
// locally-accumulated counters.
type taskOut struct {
	heads  []Tuple
	body   []Tuple
	probes int64
	durNs  int64
	fired  bool
}

// reset empties the buffer for the next round, keeping its capacity and
// dropping the tuples it referenced.
func (o *taskOut) reset() {
	clear(o.heads)
	clear(o.body)
	*o = taskOut{heads: o.heads[:0], body: o.body[:0]}
}

// commit adds the round's emissions to the IDB in task order, recording
// the stage and witness of each new tuple and attributing new/duplicate
// counts to the emitting rules; it returns how many tuples were new. With
// out non-nil (the semi-naive loop) the new tuples also fill the recycled
// delta relations in out.
func (e *evaluator) commit(tasks []fireTask, out []*Relation) int {
	for _, d := range out {
		if d != nil {
			d.reset()
		}
	}
	fresh := 0
	for i, tk := range tasks {
		o := &e.outs[i]
		if !o.fired {
			continue
		}
		cr := e.compiled(tk)
		rc := &e.ruleStats[tk.ri]
		rel := e.idbByID[cr.headID]
		n := 0
		if e.wit.prov {
			n = len(cr.atoms) - cr.skip
		}
		for j, head := range o.heads {
			stored, k, isNew := rel.add(head)
			if !isNew {
				rc.duplicates++
				continue
			}
			e.wit.record(cr, k, stored, e.rounds, o.body[j*n:(j+1)*n])
			if e.changes != nil {
				e.changes[cr.headID] = append(e.changes[cr.headID], stored)
			}
			if out != nil {
				d := out[cr.headID]
				if d == nil {
					d = NewDLRelation(len(stored))
					if e.deltaMasks != nil {
						for _, m := range e.deltaMasks[cr.headID] {
							d.ensureIndex(m)
						}
					}
					out[cr.headID] = d
				}
				d.Add(stored)
			}
			rc.fresh++
			fresh++
		}
	}
	return fresh
}

// fireRule enumerates all satisfying assignments of the compiled rule
// body and emits the corresponding head tuples into out, each with its
// matched body tuples when witnesses are kept, counting relation lookups
// into out.probes. deltaIdx >= 0 designates the body atom occurrence that
// must read from deltaRel instead of its usual relation. For a
// head-seeded form (cr.skip == 1) deltaRel holds the candidate heads, and
// the enumeration moves on to the next candidate at its first emission.
// fireRule only reads evaluator state, so distinct tasks may run it
// concurrently (each with its own out).
func (e *evaluator) fireRule(cr *cRule, deltaRel *Relation, deltaIdx int, out *taskOut) {
	if cr.never {
		return
	}
	env := make([]int, cr.nv)
	pat := make(Tuple, cr.maxAr)
	var matched []Tuple
	if e.wit.prov {
		matched = make([]Tuple, len(cr.atoms))
	}
	seeded := cr.skip > 0

	// finish enumerates the variables bound by no atom (head or constraint
	// variables) over the whole universe, then emits the head. Like try and
	// step it reports whether the current candidate of a seeded rule is
	// settled, which ends every enumeration below the seed atom.
	var finish func(k int) bool
	finish = func(k int) bool {
		if k == len(cr.free) {
			head := make(Tuple, len(cr.head))
			for i, t := range cr.head {
				head[i] = t.eval(env)
			}
			out.heads = append(out.heads, head)
			if matched != nil {
				out.body = append(out.body, matched[cr.skip:]...)
			}
			return seeded
		}
		v := cr.free[k]
		cons := cr.consAt[len(cr.atoms)+k]
		for x := 0; x < e.db.N; x++ {
			env[v] = x
			if consOK(cons, env) && finish(k+1) {
				return true
			}
		}
		return false
	}

	// try extends the assignment with one candidate tuple for atom ai.
	// Probe-mask positions already match; apply the remaining positions.
	// Binds are unconditional writes — every later read of a variable is
	// statically downstream of its bind, so no unbinding is needed when
	// backtracking.
	var step func(ai int) bool
	try := func(ai int, tup Tuple) bool {
		a := &cr.atoms[ai]
		for _, b := range a.binds {
			env[b.varID] = tup[b.pos]
		}
		for _, c := range a.checks {
			if env[c.varID] != tup[c.pos] {
				return false
			}
		}
		if !consOK(cr.consAt[ai], env) {
			return false
		}
		if matched != nil {
			matched[ai] = tup
		}
		return step(ai + 1)
	}
	step = func(ai int) bool {
		if ai == len(cr.atoms) {
			return finish(0)
		}
		a := &cr.atoms[ai]
		var rel *Relation
		switch {
		case ai == deltaIdx:
			rel = deltaRel
		case a.idbID >= 0:
			rel = e.idbByID[a.idbID]
		default:
			rel = a.edbRel
		}
		if rel == nil || rel.Size() == 0 {
			return false
		}
		for _, p := range a.pat {
			pat[p.pos] = p.t.eval(env)
		}
		out.probes++
		switch {
		case seeded && ai == 0:
			// The candidate heads: visit every one that agrees with the
			// head's constants (a.pat holds nothing else here, and deeper
			// levels overwrite pat); a settled candidate only ends its own
			// turn.
			scan := rel.Cursor()
		candidates:
			for tup, ok := scan.Next(); ok; tup, ok = scan.Next() {
				for _, p := range a.pat {
					if tup[p.pos] != p.t.val {
						continue candidates
					}
				}
				try(ai, tup)
			}
		case a.mask == 0:
			// Unbound atom: scan in place (a cursor, not Each, which would
			// cost a closure per step).
			scan := rel.Cursor()
			for tup, ok := scan.Next(); ok; tup, ok = scan.Next() {
				if try(ai, tup) {
					return true
				}
			}
		case !e.opt.UseIndexes:
			// The index ablation: filter a full scan. Deeper levels reuse pat,
			// so the candidates are collected before any of them is tried.
			var cands []Tuple
			rel.Each(func(tup Tuple) bool {
				if sameColumns(tup, pat, a.mask) {
					cands = append(cands, tup)
				}
				return true
			})
			for _, tup := range cands {
				if try(ai, tup) {
					return true
				}
			}
		case !a.indexed():
			// Every column bound: a membership test on the tuple set.
			if tup := rel.get(keyOf(pat[:a.arity])); tup != nil {
				return try(ai, tup)
			}
		default:
			for _, tup := range rel.ensureIndex(a.mask).matches(pat[:a.arity]) {
				if try(ai, tup) {
					return true
				}
			}
		}
		return false
	}
	step(0)
}

func termValue(t Term, binding map[string]int) (int, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	v, ok := binding[t.Var]
	return v, ok
}
