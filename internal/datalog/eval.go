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

	prov map[string]map[tupleKey]*Derivation
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
	e.idb = map[string]*Relation{}
	e.stage = map[string]*StageTable{}
	e.idbByID = make([]*Relation, len(e.idbNames))
	e.stageByID = make([]*StageTable, len(e.idbNames))
	for i, name := range e.idbNames {
		r := NewDLRelation(arity[name])
		e.idb[name] = r
		e.idbByID[i] = r
		st := newStageTable(r)
		e.stage[name] = st
		e.stageByID[i] = st
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
	for name := range p.EDBs() {
		r := db.Relation(name)
		if r == nil {
			r = e.empty[arity[name]]
		} else if r.Arity != arity[name] {
			return nil, fmt.Errorf("datalog: EDB %s has arity %d in the database but %d in the program",
				name, r.Arity, arity[name])
		}
		e.edb[name] = r
	}
	if opt.TrackProvenance {
		e.prov = map[string]map[tupleKey]*Derivation{}
		e.provByID = make([]map[tupleKey]*Derivation, len(e.idbNames))
		for i, name := range e.idbNames {
			m := map[tupleKey]*Derivation{}
			e.prov[name] = m
			e.provByID[i] = m
		}
	}
	e.rules = make([]*cRule, len(p.Rules))
	for ri, r := range p.Rules {
		e.rules[ri] = e.compileRule(ri, r)
	}
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
		Derivations: e.derivations, Stats: e.statsSnapshot(), prov: e.prov}
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

	idb       map[string]*Relation
	idbByID   []*Relation
	edb       map[string]*Relation // resolved EDB reads (shared empties when absent)
	empty     map[int]*Relation    // shared read-only empty relation per arity
	stage     map[string]*StageTable
	stageByID []*StageTable
	prov      map[string]map[tupleKey]*Derivation
	provByID  []map[tupleKey]*Derivation

	// rules holds the compiled form of every program rule; see compile.go.
	// All join masks are known statically from it, so every index can be
	// registered before workers fire in parallel.
	rules []*cRule
	// deltaMasks[id] collects the masks probed on predicate id's delta.
	deltaMasks [][]uint64
	// deltaPool ping-pongs two sets of per-predicate delta relations so
	// steady-state rounds recycle buffers instead of reallocating.
	deltaPool [2][]*Relation
	// pending is the reused per-round emission buffer; its capacity tracks
	// the previous round's cardinality. spans attributes contiguous ranges
	// of pending to the rule that emitted them (one span per task, in
	// deterministic task order).
	pending []fact
	spans   []span
	tasks   []fireTask

	// Instrumentation accumulators; see stats.go.
	ruleStats     []ruleCounters
	roundStats    []RoundStats
	roundsDropped int64
	elapsedNs     int64

	rounds      int
	derivations int

	// changes, when non-nil, records every genuinely new IDB tuple the
	// commit paths land, keyed by dense predicate id. Incremental turns it
	// on around a maintenance run to surface the run's exact view delta
	// (see Incremental.LastDelta); ordinary evaluations leave it nil and
	// pay nothing.
	changes []map[tupleKey]Tuple
}

// span attributes pending[start:end] to rule ri for per-rule commit
// accounting.
type span struct {
	ri         int
	start, end int
}

// fireTask is one unit of per-round work: fire rule ri with body atom
// occurrence deltaIdx reading from the relation rel instead of its usual
// source (-1 for no delta position). rel is an IDB delta in the
// semi-naive loop and an EDB delta when Incremental seeds an insertion.
type fireTask struct {
	ri       int
	deltaIdx int
	rel      *Relation
}

// prepareIndexes registers every statically-probed join index up front:
// on IDB relations (then maintained incrementally by commit) and on the
// EDB relations (built once over the stable extensional data). It also
// collects the masks each predicate's delta relations will need.
func (e *evaluator) prepareIndexes() {
	e.deltaMasks = make([][]uint64, len(e.idbNames))
	for _, cr := range e.rules {
		for ai := range cr.atoms {
			a := &cr.atoms[ai]
			if a.mask == 0 {
				continue
			}
			if a.idbID >= 0 {
				e.idbByID[a.idbID].ensureIndex(a.mask)
				if !containsMask(e.deltaMasks[a.idbID], a.mask) {
					e.deltaMasks[a.idbID] = append(e.deltaMasks[a.idbID], a.mask)
				}
			} else if a.edbRel != nil {
				a.edbRel.ensureIndex(a.mask)
			}
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
		start := time.Now()
		pending := e.collect(tasks)
		if err := e.ctx.Err(); err != nil {
			// Abort before the commit: the round's emissions are discarded,
			// so the result stays a whole-rounds-only prefix.
			e.rounds--
			return err
		}
		fresh := e.commit(pending)
		e.recordRound(RoundStats{Round: e.rounds, Tasks: len(tasks),
			Derived: int64(len(pending)), New: int64(fresh), TimeNs: time.Since(start).Nanoseconds()})
		if fresh == 0 {
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
	anyNew, err := e.deltaRound(e.allRuleTasks(), e.deltaPool[0])
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
		anyNew, err := e.deltaRound(e.tasks, e.deltaPool[1-cur])
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
	anyNew, err := e.deltaRound(e.tasks, e.deltaPool[0])
	if err != nil {
		e.rounds--
		return err
	}
	if anyNew {
		return e.loopSemiNaive(0)
	}
	return nil
}

// deltaRound fires tasks, commits the emissions into the IDB and the
// delta relations in out, and records the round's counters. It aborts
// without committing when the context ends during firing.
func (e *evaluator) deltaRound(tasks []fireTask, out []*Relation) (bool, error) {
	start := time.Now()
	pending := e.collect(tasks)
	if err := e.ctx.Err(); err != nil {
		return false, err
	}
	fresh := e.commitDelta(pending, out)
	e.recordRound(RoundStats{Round: e.rounds, Tasks: len(tasks),
		Derived: int64(len(pending)), New: int64(fresh), TimeNs: time.Since(start).Nanoseconds()})
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

// collect fires all tasks and returns the emitted facts in deterministic
// task order, recording per-rule firing counters as it goes. With
// Parallelism > 1 the tasks are distributed over a bounded worker pool;
// each worker emits into a private buffer and the buffers are
// concatenated in task order, which reproduces the sequential emission
// order exactly (and hence identical Stage, Rounds and first-derivation
// provenance commits). During firing the workers only read the
// IDB/EDB/delta relations — every join index they probe was registered up
// front — so no synchronization beyond the final join is needed. Workers
// check the context between tasks and stop taking new ones once it ends.
func (e *evaluator) collect(tasks []fireTask) []fact {
	e.pending = e.pending[:0]
	e.spans = e.spans[:0]
	if e.par <= 1 || len(tasks) <= 1 {
		for _, tk := range tasks {
			if e.ctx.Err() != nil {
				break
			}
			cr := e.rules[tk.ri]
			rc := &e.ruleStats[tk.ri]
			begin := len(e.pending)
			t0 := time.Now()
			e.fireRule(cr, tk.rel, tk.deltaIdx, &rc.probes, func(t Tuple, d *Derivation) {
				e.pending = append(e.pending, fact{predID: cr.headID, t: t, deriv: d})
			})
			rc.timeNs += time.Since(t0).Nanoseconds()
			rc.firings++
			rc.derived += int64(len(e.pending) - begin)
			e.spans = append(e.spans, span{ri: tk.ri, start: begin, end: len(e.pending)})
		}
		return e.pending
	}
	outs := make([]taskOut, len(tasks))
	workers := e.par
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if e.ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				tk := tasks[i]
				cr := e.rules[tk.ri]
				o := &outs[i]
				t0 := time.Now()
				e.fireRule(cr, tk.rel, tk.deltaIdx, &o.probes, func(t Tuple, d *Derivation) {
					o.buf = append(o.buf, fact{predID: cr.headID, t: t, deriv: d})
				})
				o.durNs = time.Since(t0).Nanoseconds()
				o.fired = true
			}
		}()
	}
	wg.Wait()
	for i := range outs {
		o := &outs[i]
		if !o.fired {
			continue
		}
		rc := &e.ruleStats[tasks[i].ri]
		rc.firings++
		rc.derived += int64(len(o.buf))
		rc.probes += o.probes
		rc.timeNs += o.durNs
		begin := len(e.pending)
		e.pending = append(e.pending, o.buf...)
		e.spans = append(e.spans, span{ri: tasks[i].ri, start: begin, end: len(e.pending)})
	}
	return e.pending
}

// taskOut is one parallel task's private output: its emission buffer and
// its locally-accumulated counters, merged in task order after the join.
type taskOut struct {
	buf    []fact
	probes int64
	durNs  int64
	fired  bool
}

type fact struct {
	predID int
	t      Tuple
	deriv  *Derivation
}

// commit adds pending facts, recording stages and attributing new/dup
// counts to the emitting rules via the collected spans; returns how many
// facts were new.
func (e *evaluator) commit(pending []fact) int {
	e.derivations += len(pending)
	fresh := 0
	for _, sp := range e.spans {
		rc := &e.ruleStats[sp.ri]
		for _, f := range pending[sp.start:sp.end] {
			if k, isNew := e.idbByID[f.predID].add(f.t); isNew {
				e.stageByID[f.predID].m[k] = e.rounds
				if e.provByID != nil {
					e.provByID[f.predID][k] = f.deriv
				}
				if e.changes != nil {
					e.changes[f.predID][k] = f.t
				}
				rc.fresh++
				fresh++
			} else {
				rc.duplicates++
			}
		}
	}
	return fresh
}

// commitDelta adds pending facts into the IDB and the recycled delta
// relations in out, returning how many were new.
func (e *evaluator) commitDelta(pending []fact, out []*Relation) int {
	e.derivations += len(pending)
	for _, d := range out {
		if d != nil {
			d.reset()
		}
	}
	fresh := 0
	for _, sp := range e.spans {
		rc := &e.ruleStats[sp.ri]
		for _, f := range pending[sp.start:sp.end] {
			if k, isNew := e.idbByID[f.predID].add(f.t); isNew {
				e.stageByID[f.predID].m[k] = e.rounds
				if e.provByID != nil {
					e.provByID[f.predID][k] = f.deriv
				}
				if e.changes != nil {
					e.changes[f.predID][k] = f.t
				}
				d := out[f.predID]
				if d == nil {
					d = NewDLRelation(len(f.t))
					if e.deltaMasks != nil {
						for _, m := range e.deltaMasks[f.predID] {
							d.ensureIndex(m)
						}
					}
					out[f.predID] = d
				}
				d.Add(f.t)
				rc.fresh++
				fresh++
			} else {
				rc.duplicates++
			}
		}
	}
	return fresh
}

// fireRule enumerates all satisfying assignments of the compiled rule
// body and emits the corresponding head tuples with (optional)
// provenance, counting relation lookups into probes. deltaIdx >= 0
// designates the body atom occurrence that must read from deltaRel
// instead of its usual relation. fireRule only reads evaluator state, so
// distinct tasks may run it concurrently (each with its own probes
// counter).
func (e *evaluator) fireRule(cr *cRule, deltaRel *Relation, deltaIdx int, probes *int64, emit func(Tuple, *Derivation)) {
	if cr.never {
		return
	}
	env := make([]int, cr.nv)
	pat := make(Tuple, cr.maxAr)
	var matched []Tuple
	if e.prov != nil {
		matched = make([]Tuple, len(cr.atoms))
	}

	// finish enumerates the variables bound by no atom (head or constraint
	// variables) over the whole universe, then emits the head.
	var finish func(k int)
	finish = func(k int) {
		if k == len(cr.free) {
			head := make(Tuple, len(cr.head))
			for i, t := range cr.head {
				head[i] = t.eval(env)
			}
			var deriv *Derivation
			if matched != nil {
				deriv = &Derivation{Rule: cr.ri}
				for i := range cr.atoms {
					cp := make(Tuple, len(matched[i]))
					copy(cp, matched[i])
					deriv.Body = append(deriv.Body, Fact{Pred: cr.atoms[i].pred, Tuple: cp})
				}
			}
			emit(head, deriv)
			return
		}
		v := cr.free[k]
		cons := cr.consAt[len(cr.atoms)+k]
		for x := 0; x < e.db.N; x++ {
			env[v] = x
			if consOK(cons, env) {
				finish(k + 1)
			}
		}
	}

	// try extends the assignment with one candidate tuple for atom ai.
	// Probe-mask positions already match; apply the remaining positions.
	// Binds are unconditional writes — every later read of a variable is
	// statically downstream of its bind, so no unbinding is needed when
	// backtracking.
	var step func(ai int)
	try := func(ai int, tup Tuple) {
		a := &cr.atoms[ai]
		for _, b := range a.binds {
			env[b.varID] = tup[b.pos]
		}
		for _, c := range a.checks {
			if env[c.varID] != tup[c.pos] {
				return
			}
		}
		if consOK(cr.consAt[ai], env) {
			if matched != nil {
				matched[ai] = tup
			}
			step(ai + 1)
		}
	}
	step = func(ai int) {
		if ai == len(cr.atoms) {
			finish(0)
			return
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
			return
		}
		for _, p := range a.pat {
			pat[p.pos] = p.t.eval(env)
		}
		*probes++
		switch {
		case a.mask == 0:
			// Unbound atom: scan in place (a cursor, not Each, which would
			// cost a closure per step).
			scan := rel.Cursor()
			for tup, ok := scan.Next(); ok; tup, ok = scan.Next() {
				try(ai, tup)
			}
		case e.opt.UseIndexes:
			for _, tup := range rel.ensureIndex(a.mask).matches(pat[:a.arity]) {
				try(ai, tup)
			}
		default:
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
				try(ai, tup)
			}
		}
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
