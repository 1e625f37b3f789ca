package datalog

import (
	"context"
	"fmt"
	"sort"
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
// checked at every iteration round and between rule-firing tasks, so a
// runaway fixpoint aborts within one round of the context ending. On
// cancellation it returns ctx.Err() alongside the partial Result computed
// so far (a consistent prefix of the fixpoint: whole rounds only, never a
// half-committed round).
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
// dense predicate ids, output relations, compiled rules, resolved EDB reads
// with their indexes registered (bind) and the delta pools. Eval runs it to
// the fixpoint and discards it; Incremental keeps it alive across updates.
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
	e := &evaluator{ctx: ctx, p: p, opt: opt, idbSet: idbSet}
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
	for name := range p.EDBs() {
		e.edbNames = append(e.edbNames, name)
	}
	sort.Strings(e.edbNames)
	e.wit = newWitnessStore(opt.TrackProvenance, e.idbNames, e.edbNames, arity)
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
	e.rules = make([]*cRule, len(p.Rules))
	e.led = make([][]*cRule, len(p.Rules))
	for ri, r := range p.Rules {
		src := translate(ri, r, e.idbID, e.wit.tabID)
		e.rules[ri] = src.schedule(src.order(noLead, src.sizes(idbSet, db)))
		e.forms = append(e.forms, e.rules[ri])
		e.led[ri] = make([]*cRule, len(src.atoms))
	}
	e.wit.setRules(e.rules)
	e.ruleStats = make([]ruleCounters, len(p.Rules))
	e.edb = make(map[string]*Relation, len(e.edbNames))
	if err := e.bind(db); err != nil {
		return nil, err
	}
	e.resetDeltas()
	return e, nil
}

// bind points the evaluation at db: the program's EDB predicates and every
// compiled EDB atom resolve to db's relations — one referenced but absent
// to a shared empty relation, db itself is never written — with their
// indexes registered (resolve).
func (e *evaluator) bind(db *Database) error {
	e.db = db
	for _, name := range e.edbNames {
		arity := e.wit.tabs[e.wit.tabID[name]].arity
		r := db.Relation(name)
		if r == nil {
			r = e.empty[arity]
		} else if r.Arity != arity {
			return fmt.Errorf("datalog: EDB %s has arity %d in the database but %d in the program",
				name, r.Arity, arity)
		}
		e.edb[name] = r
	}
	for _, cr := range e.forms {
		e.resolve(cr)
	}
	return nil
}

// resolve points cr's EDB atoms at the bound database's relations and,
// with UseIndexes, registers every index cr will probe on the relation it
// reads: maintained by commit from then on for an IDB relation, built once
// over the extensional data for an EDB one (under the relation's lock, as
// a first probe would: the database may be a snapshot other evaluations
// read). A form is resolved before any task fires it, so a firing finds
// every index in place and never builds one mid-round.
func (e *evaluator) resolve(cr *cRule) {
	for ai := range cr.atoms {
		if a := &cr.atoms[ai]; a.idbID < 0 {
			a.edbRel = e.edb[a.pred]
		}
	}
	if !e.opt.UseIndexes {
		return
	}
	for ai := range cr.atoms {
		a := &cr.atoms[ai]
		if a.idbID >= 0 && !cr.led && e.opt.SemiNaive {
			// A form with no leading atom fires in round 1 alone, when every
			// IDB relation is empty: the enumeration ends here.
			return
		}
		if !a.indexed() || cr.led && ai == 0 {
			continue
		}
		if a.idbID >= 0 {
			e.idbByID[a.idbID].ensureIndex(a.mask)
		} else {
			a.edbRel.ensureIndex(a.mask)
		}
	}
}

// ledBy returns rule ri led by its body atom ai, compiled on first use: an
// evaluation pays for the forms its deltas reach, a bound goal over a small
// database reaches few of them, and an Incremental asks for all of them up
// front.
func (e *evaluator) ledBy(ri, ai int) *cRule {
	if e.led[ri][ai] == nil {
		e.led[ri][ai] = e.compileLed(ri, ai)
	}
	return e.led[ri][ai]
}

// resetDeltas gives the semi-naive loop two fresh sets of empty delta lists.
func (e *evaluator) resetDeltas() {
	e.deltaPool = [2][][]Tuple{
		make([][]Tuple, len(e.idbNames)),
		make([][]Tuple, len(e.idbNames)),
	}
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
	idbSet map[string]bool

	idbNames []string       // sorted IDB predicate names; position = id
	idbID    map[string]int // predicate name -> dense id
	edbNames []string       // sorted EDB predicate names

	idb     map[string]*Relation
	idbByID []*Relation
	edb     map[string]*Relation // resolved EDB reads (shared empties when absent)
	empty   map[int]*Relation    // shared read-only empty relation per arity
	stage   map[string]*StageTable
	// wit holds every derived tuple's stage and, with TrackProvenance, its
	// first-derivation witness; see witness.go.
	wit *witnessStore

	// rules holds the unled form of every program rule, led[ri][ai] rule ri
	// led by its body atom ai (a body position) once something asked for it
	// (ledBy) and seeded, for an Incremental only, each rule led by its
	// head; see compile.go. forms lists them all, for bind.
	rules  []*cRule
	led    [][]*cRule
	seeded []*cRule
	forms  []*cRule
	// deltaPool ping-pongs two sets of per-predicate delta lists — a round's
	// new tuples, the relations' own copies — so steady-state rounds recycle
	// buffers instead of reallocating.
	deltaPool [2][][]Tuple
	// out is the round's emission buffer, kept from round to round so its
	// capacity tracks the largest round it has seen.
	out   roundOut
	tasks []fireTask

	// Instrumentation accumulators; see stats.go.
	ruleStats     []ruleCounters
	ruleText      []string // the rules printed, for RuleStats; see ruleStatsSnapshot
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

// fireTask is one unit of per-round work: fire the compiled form cr, its
// leading atom — when it has one — reading lead: an IDB delta in the
// semi-naive loop, the inserted EDB facts or the over-deleted candidate
// heads when an Incremental starts a maintenance run.
type fireTask struct {
	cr   *cRule
	lead []Tuple
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
			for ai, a := range cr.cSrc.atoms {
				if a.idbID >= 0 && len(delta[a.idbID]) > 0 {
					e.tasks = append(e.tasks, fireTask{cr: e.ledBy(ri, ai), lead: delta[a.idbID]})
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
// semi-naive loop, the delta lists in out) and records the round's
// counters; it reports whether anything new was derived. It aborts without
// committing when the context ends during firing: the round's emissions
// are discarded, so the result stays a whole-rounds-only prefix.
func (e *evaluator) round(tasks []fireTask, out [][]Tuple) (bool, error) {
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

// allRuleTasks returns one task per rule with no leading atom.
func (e *evaluator) allRuleTasks() []fireTask {
	e.tasks = e.tasks[:0]
	for _, cr := range e.rules {
		e.tasks = append(e.tasks, fireTask{cr: cr})
	}
	return e.tasks
}

// collect fires tasks in order on the calling goroutine into e.out and
// adds each firing's counters to its rule's accumulators; it returns the
// number of emissions. It checks the context between tasks and stops firing
// once it ends (round then discards the emissions).
func (e *evaluator) collect(tasks []fireTask) int {
	o := &e.out
	o.reset()
	for _, tk := range tasks {
		if e.ctx.Err() != nil {
			break
		}
		t0 := time.Now()
		from := len(o.heads)
		probes := e.fireRule(tk.cr, tk.lead, o)
		rc := &e.ruleStats[tk.cr.ri]
		rc.firings++
		rc.derived += int64(len(o.heads) - from)
		rc.probes += probes
		rc.timeNs += time.Since(t0).Nanoseconds()
		o.ends = append(o.ends, len(o.heads))
	}
	return len(o.heads)
}

// roundOut is a round's output: the head tuples the tasks emitted, in
// emission order, task i's ending at ends[i], with their witnesses beside
// them — when witnesses are kept, each emission of a rule with n recorded
// atoms appends its n matched body tuples to body, aliasing the relations'
// own tuples.
type roundOut struct {
	heads []Tuple
	body  []Tuple
	ends  []int
}

// reset empties the buffer for the next round, keeping its capacity and
// dropping the tuples it referenced.
func (o *roundOut) reset() {
	clear(o.heads)
	clear(o.body)
	o.heads, o.body, o.ends = o.heads[:0], o.body[:0], o.ends[:0]
}

// commit adds the round's emissions to the IDB in task order, recording
// the stage and witness of each new tuple and attributing new/duplicate
// counts to the emitting rules; it returns how many tuples were new. With
// out non-nil (the semi-naive loop) the new tuples also fill the recycled
// delta lists in out. An emitted head is the relation's to keep.
func (e *evaluator) commit(tasks []fireTask, out [][]Tuple) int {
	for id, d := range out {
		clear(d)
		out[id] = d[:0]
	}
	fresh := 0
	o := &e.out
	from, body := 0, 0
	for i, end := range o.ends {
		cr := tasks[i].cr
		rc := &e.ruleStats[cr.ri]
		rel := e.idbByID[cr.headID]
		n := 0
		if e.wit.prov {
			n = len(cr.atoms) - cr.skip
		}
		for _, head := range o.heads[from:end] {
			matched := o.body[body : body+n]
			body += n
			stored, k, isNew := rel.add(head, true)
			if !isNew {
				rc.duplicates++
				continue
			}
			e.wit.record(cr, k, stored, e.rounds, matched)
			if e.changes != nil {
				e.changes[cr.headID] = append(e.changes[cr.headID], stored)
			}
			if out != nil {
				out[cr.headID] = append(out[cr.headID], stored)
			}
			rc.fresh++
			fresh++
		}
		from = end
	}
	return fresh
}

// fireRule enumerates all satisfying assignments of the compiled rule
// body and appends the corresponding head tuples to out, each with its
// matched body tuples when witnesses are kept; it returns the number of
// relation lookups it issued. A leading-atom form (cr.led) reads its atom 0
// from lead instead of a relation. For a head-seeded one (cr.skip == 1)
// lead holds the candidate heads, and the enumeration moves on to the next
// candidate at its first emission.
func (e *evaluator) fireRule(cr *cRule, lead []Tuple, out *roundOut) (probes int64) {
	if cr.never {
		return 0
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
	// backtracking. These are Join.Apply's steps, kept inline: calling out
	// measured 8 % slower on E24 insert (EXPERIMENTS.md E38).
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
		if cr.led && ai == 0 {
			// The leading atom: visit every listed tuple that agrees with the
			// atom's constants (with nothing bound yet, a.pat holds nothing
			// else). A settled candidate of a seeded rule only ends its own
			// turn, and no other form settles anything.
			probes++
		leading:
			for _, tup := range lead {
				for _, p := range a.pat {
					if tup[p.pos] != p.t.val {
						continue leading
					}
				}
				try(ai, tup)
			}
			return false
		}
		rel := a.edbRel
		if a.idbID >= 0 {
			rel = e.idbByID[a.idbID]
		}
		if rel.Size() == 0 {
			return false
		}
		for _, p := range a.pat {
			pat[p.pos] = p.t.eval(env)
		}
		probes++
		switch {
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
	return probes
}

func termValue(t Term, binding map[string]int) (int, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	v, ok := binding[t.Var]
	return v, ok
}
