package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/datalog"
	"repro/internal/magic"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/stream"
)

// The traced run. This PR may not touch the program, so spans are recorded
// here, around calls into each layer's public functions. In process, one
// client, the first TraceOps ops of the workload's closed-loop sequence
// run against three replicas of the common state, each op three ways:
//
//	(a) through service.Handler (behind cmd/serve's logging middleware)
//	    with httptest — the whole server side of a request;
//	(b) as Service.QueryContext / QueryStream / Commit — (a) minus (b) is
//	    what HTTP routing, JSON decode and encode cost: service.codec_self_ms;
//	(c) step by step the way service.go composes the layers, one span per
//	    step. A layer's metric is its spans' self time per traced op.
//
// What (b) spends that (c) does not decompose — executor, locks, metrics,
// result cache, delta publish, checkpoints — is service.unattributed_ms:
// reported, not hidden. End-to-end metrics never come from this run;
// trace.overhead_ratio is (c)'s whole-op mean, less the encode, over (b)'s.

// span is one timed call into a layer. Times are nanoseconds since the
// workload's trace began; Parent 0 is an op's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // open spans, innermost last (indexes into spans)
	op    int
}

// in runs f inside a span named name, a child of the innermost open span.
func (t *tracer) in(name string, f func()) {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	at := len(t.spans)
	t.spans = append(t.spans, span{ID: at + 1, Parent: parent, Op: t.op, Name: name})
	t.stack = append(t.stack, at)
	t.spans[at].Start = int64(time.Since(t.t0))
	f()
	t.spans[at].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes sums, per span name, duration minus the part child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return out
}

// layerSpans are the span names of replay (c) that are calls into a layer;
// the metric of each is its name plus "_ms".
var layerSpans = []string{
	"store.at", "store.clone", "store.fork",
	"magic.rewrite", "magic.seed",
	"plan.catalog", "plan.plan",
	"datalog.eval", "datalog.check", "datalog.delete", "datalog.insert", "datalog.merge_delta",
	"stream.open", "stream.drain",
	"storage.append",
	"service.sort", "service.encode",
}

// replica is the layers of one server held by hand, for replay (c): what
// service.Service holds, minus the service.
type replica struct {
	db       *datalog.Database // latest EDB
	cat      *plan.Catalog     // its statistics
	version  int64
	planner  *plan.Planner
	opts     datalog.Options
	log      *storage.Log
	progs    []string // maintenance order
	parsed   map[string]*datalog.Program
	incs     map[string]*datalog.Incremental
	rewrites map[string]*magic.Rewrite // by program: every goal here is adorned bf
	sorted   map[string][]datalog.Tuple
	sortedAt int64
}

func toFacts(es []edge) []datalog.Fact {
	out := make([]datalog.Fact, len(es))
	for i, e := range es {
		out[i] = datalog.Fact{Pred: "E", Tuple: datalog.Tuple{e[0], e[1]}}
	}
	return out
}

// newService is a replica with cmd/serve's configuration, brought to the
// common state.
func newService(dir string, r *run) (*service.Service, error) {
	svc, err := service.New(service.Config{Universe: r.gen.size.Universe, DataDir: dir, Fsync: "always"})
	if err != nil {
		return nil, err
	}
	for _, s := range r.plan {
		if _, err := svc.Commit(toFacts(s.ins), nil); err != nil {
			return nil, err
		}
	}
	for _, p := range programs {
		if _, err := svc.Register(p.name, p.source); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

// newReplica builds the by-hand replica on the state svc is in.
func newReplica(dir string, svc *service.Service) (*replica, error) {
	snap := svc.Store().Latest()
	c := &replica{
		db: snap.DB.Clone(), version: snap.Version,
		planner: plan.New(plan.Config{CacheEntries: 128}),
		opts:    datalog.DefaultOptions,
		parsed:  map[string]*datalog.Program{}, incs: map[string]*datalog.Incremental{},
		rewrites: map[string]*magic.Rewrite{},
	}
	c.cat = plan.Collect(c.db)
	var err error
	if c.log, _, err = storage.Open(dir, storage.Options{Sync: storage.SyncAlways}); err != nil {
		return nil, err
	}
	for _, p := range programs {
		prog, err := datalog.Parse(p.source)
		if err != nil {
			return nil, err
		}
		inc, err := datalog.NewIncremental(prog, c.db, c.opts.WithPlanner(c.planner.With(c.cat)))
		if err != nil {
			return nil, err
		}
		c.progs = append(c.progs, p.name)
		c.parsed[p.name], c.incs[p.name] = prog, inc
	}
	return c, nil
}

// traceWorkload runs the traced replay and adds the per-layer metrics that
// only it can measure to m.
func (e *env) traceWorkload(r *run, m metrics) error {
	dir := e.scratch()
	svcA, err := newService(filepath.Join(dir, "a"), r)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer svcA.Close()
	svcB, err := newService(filepath.Join(dir, "b"), r)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer svcB.Close()
	c, err := newReplica(filepath.Join(dir, "c"), svcB)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer c.log.Close()
	handler := service.LogRequests(slog.New(slog.NewTextHandler(io.Discard, nil)), svcA.Handler())

	// Ops are resolved against a fresh oracle, as the HTTP run resolves them:
	// asking a replica for its view would pay its sort before the clock runs.
	fresh := newRun(r.w, r.gen.size, r.gen.seed, r.gen.window)
	orc, churn := fresh.orc, fresh.churn
	tr := &tracer{t0: time.Now()}
	ctx := context.Background()
	var viaHTTP, direct, traced time.Duration
	for i := 0; i < r.w.TraceOps; i++ {
		o := r.gen.op(phaseClosed, i)
		tr.op = i + 1
		var req any
		var ins, del []edge
		var prog string
		var after *[2]int
		switch o.Kind {
		case opCommit:
			ins, del = churn.next(phaseClosed)
			orc.advance(ins, del)
			req = service.CommitRequest{Insert: facts(ins), Delete: facts(del)}
		case opPage:
			ref := orc.latest()
			var page int
			prog, page = ref.locate(o.Pos)
			after = ref.before(prog, page)
			req = service.QueryRequestJSON{Program: prog, Pred: predOf(prog), Limit: pageLimit, Cursor: cursorOf(after)}
		case opGoalHop2:
			req = service.QueryRequestJSON{Program: "hop2", Pred: "J", Bind: []*int{&o.X, nil}, Limit: streamLimit, Stream: true}
		default:
			req = service.QueryRequestJSON{Program: "tc", Pred: "S", Bind: []*int{&o.X, nil}}
		}

		// (a) the whole server side of the request.
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		path := "/v1/query"
		if o.Kind == opCommit {
			path = "/v1/commit"
		}
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		start := time.Now()
		handler.ServeHTTP(rec, hr)
		viaHTTP += time.Since(start)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("trace: op %d via handler: %d %s", i, rec.Code, rec.Body.String())
		}

		// (b) the service call alone.
		start = time.Now()
		n, err := callDirect(ctx, svcB, o, req, ins, del)
		direct += time.Since(start)
		if err != nil {
			return fmt.Errorf("trace: op %d direct: %w", i, err)
		}

		// (c) the same work, layer by layer.
		start = time.Now()
		var got int
		tr.in("op."+o.Kind.String(), func() {
			switch o.Kind {
			case opCommit:
				got, err = c.replayCommit(ctx, tr, toFacts(ins), toFacts(del))
			case opPage:
				got = c.replayPage(tr, prog, after)
			default:
				got, err = c.replayGoal(ctx, tr, svcB.Store(), o)
			}
		})
		traced += time.Since(start)
		if err != nil {
			return fmt.Errorf("trace: op %d replay: %w", i, err)
		}
		if got != n {
			return fmt.Errorf("trace: op %d (%s): replay answered %d tuples, the service %d", i, o.Kind, got, n)
		}
	}
	for _, name := range c.progs {
		if err := c.agrees(svcB, name); err != nil {
			return err
		}
	}

	ops := float64(r.w.TraceOps)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / ops }
	self := tr.selfTimes()
	// The response's encode is replayed for its own metric, but the service
	// call (b) ends before it: it is part of (a) - (b), not of (b).
	encode := self["service.encode"]
	attributed := -encode
	for _, name := range layerSpans {
		m[name+"_ms"] = value{ms(self[name]), "ms"}
		attributed += self[name]
	}
	m["service.codec_self_ms"] = value{ms(viaHTTP - direct), "ms"}
	m["service.unattributed_ms"] = value{ms(direct - attributed), "ms"}
	m["trace.overhead_ratio"] = value{ratio(float64(traced-encode), float64(direct)), "ratio"}
	e.traces[r.w.Name] = tr.spans
	return nil
}

// view is the maintained view of a program in canonical order, sorted once
// per version — the work the service's result cache saves between commits.
func (c *replica) view(prog string) []datalog.Tuple {
	if c.sortedAt != c.version || c.sorted == nil {
		c.sorted, c.sortedAt = map[string][]datalog.Tuple{}, c.version
	}
	if v, ok := c.sorted[prog]; ok {
		return v
	}
	v := c.incs[prog].Result().IDB[predOf(prog)].Tuples()
	c.sorted[prog] = v
	return v
}

// callDirect issues the op as the Service method the handler would call and
// returns how many tuples it answered (for a commit, inserted + deleted).
func callDirect(ctx context.Context, svc *service.Service, o op, req any, ins, del []edge) (int, error) {
	if o.Kind == opCommit {
		info, err := svc.Commit(toFacts(ins), toFacts(del))
		return info.Inserted + info.Deleted, err
	}
	q := req.(service.QueryRequestJSON)
	sq := service.QueryRequest{Program: q.Program, Pred: q.Pred, Version: -1, Bind: q.Bind, Limit: q.Limit, Cursor: q.Cursor}
	if !q.Stream {
		res, err := svc.QueryContext(ctx, sq)
		return len(res.Tuples), err
	}
	qs, err := svc.QueryStream(ctx, sq)
	if err != nil {
		return 0, err
	}
	defer qs.Close()
	n := 0
	for {
		if _, ok := qs.Next(); !ok {
			return n, qs.Err()
		}
		n++
	}
}

// replayPage is a page of a maintained view: the sort a version's first
// read pays (service/cache.go spares the later ones) and the page cut, then
// the encode. It returns the page's length.
func (c *replica) replayPage(tr *tracer, prog string, after *[2]int) int {
	var page []datalog.Tuple
	tr.in("service.sort", func() {
		view := c.view(prog)
		lo := 0
		if after != nil {
			cur := datalog.Tuple{after[0], after[1]}
			lo = sort.Search(len(view), func(i int) bool { return datalog.CompareTuples(view[i], cur) > 0 })
		}
		page = view[lo:min(lo+pageLimit, len(view))]
	})
	tr.in("service.encode", func() { encodeResponse(page) })
	return len(page)
}

// replayGoal is a bound goal: snapshot, clone, rewrite, seed, plan, then
// semi-naive evaluation (tc) or the iterator tree (hop2), then the encode.
// It returns the number of answers.
func (c *replica) replayGoal(ctx context.Context, tr *tracer, store *service.Store, o op) (int, error) {
	prog := "tc"
	if o.Kind == opGoalHop2 {
		prog = "hop2"
	}
	goal := datalog.NewGoal(predOf(prog), 2, map[int]int{0: o.X})
	var snap *service.Snapshot
	var db *datalog.Database
	var seeded *datalog.Program
	var pp *plan.ProgramPlan
	var err error
	tr.in("store.at", func() { snap, _ = store.At(c.version) })
	if snap == nil {
		return 0, fmt.Errorf("version %d is not retained", c.version)
	}
	tr.in("store.clone", func() { db = snap.DB.Clone() })
	rw := c.rewrites[prog]
	tr.in("magic.rewrite", func() {
		if rw == nil {
			rw, err = magic.NewRewrite(c.parsed[prog], goal, magic.BoundFirstSIP{})
			c.rewrites[prog] = rw
		}
	})
	if err != nil {
		return 0, err
	}
	tr.in("magic.seed", func() { seeded, err = rw.Seeded(goal) })
	if err != nil {
		return 0, err
	}
	tr.in("plan.plan", func() { pp, _ = c.planner.PlanProgram(seeded, snap.Stats) })
	opts := c.opts.WithPlanner(c.planner.With(snap.Stats))
	var answers []datalog.Tuple
	if o.Kind == opGoalTC {
		tr.in("datalog.eval", func() {
			var res *magic.GoalResult
			if res, err = magic.EvalRewritten(ctx, rw, db, goal, opts); err == nil {
				answers = res.Answers
			}
		})
		if err != nil {
			return 0, err
		}
		tr.in("service.encode", func() { encodeResponse(answers) })
		return len(answers), nil
	}
	var st *stream.Stream
	tr.in("stream.open", func() {
		// One past the limit, for the truncated flag: as service/stream.go.
		st, err = stream.Open(ctx, seeded, db, rw.GoalPred, stream.Options{Eval: opts, Plan: pp, Limit: streamLimit + 1, Filter: &goal})
	})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	tr.in("stream.drain", func() {
		for len(answers) <= streamLimit {
			t, ok := st.Next()
			if !ok {
				break
			}
			answers = append(answers, t)
		}
	})
	if err := st.Err(); err != nil {
		return 0, err
	}
	answers = answers[:min(len(answers), streamLimit)]
	tr.in("service.encode", func() {
		enc := json.NewEncoder(io.Discard)
		for _, t := range answers {
			_ = enc.Encode([]int(t)) // io.Discard does not fail
		}
	})
	return len(answers), nil
}

// encodeResponse is http.go's writeJSON of a QueryResponse.
func encodeResponse(tuples []datalog.Tuple) {
	wire := make([][]int, len(tuples))
	for i, t := range tuples {
		wire[i] = t
	}
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	_ = enc.Encode(service.QueryResponse{Count: len(wire), Tuples: wire}) // io.Discard does not fail
}

// replayCommit is commitLocked's composition: validate against every view,
// fork the store, refresh the catalog, append to the WAL, then per program
// DRed delete, insert, and the merge of the two deltas.
func (c *replica) replayCommit(ctx context.Context, tr *tracer, ins, del []datalog.Fact) (int, error) {
	var err error
	tr.in("datalog.check", func() {
		for _, name := range c.progs {
			if err = c.incs[name].Check(ins...); err != nil {
				return
			}
			if err = c.incs[name].Check(del...); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	changed := 0
	tr.in("store.fork", func() {
		db := c.db.Fork("E")
		rel := db.EnsureRelation("E", 2)
		for _, f := range del {
			if rel.Remove(f.Tuple) {
				changed++
			}
		}
		for _, f := range ins {
			if rel.Add(f.Tuple) {
				changed++
			}
		}
		c.db = db
		c.version++
	})
	tr.in("plan.catalog", func() { c.cat = c.cat.Refresh(c.db, "E") })
	tr.in("storage.append", func() { _, err = c.log.AppendCommit(c.version, ins, del) })
	if err != nil {
		return 0, err
	}
	for _, name := range c.progs {
		inc := c.incs[name]
		tr.in("datalog.delete", func() { err = inc.DeleteContext(ctx, del...) })
		if err != nil {
			return 0, err
		}
		delDelta := inc.LastDelta()
		tr.in("datalog.insert", func() { err = inc.InsertContext(ctx, ins...) })
		if err != nil {
			return 0, err
		}
		tr.in("datalog.merge_delta", func() { datalog.MergeDeltas(delDelta, inc.LastDelta()) })
	}
	return changed, nil
}

// agrees checks the replay kept the by-hand replica's view of a program
// equal to the service's: the decomposition is of the same work.
func (c *replica) agrees(svc *service.Service, prog string) error {
	pred := c.parsed[prog].Goal
	res, err := svc.Query(service.QueryRequest{Program: prog, Pred: pred, Version: -1})
	if err != nil {
		return err
	}
	mine := c.incs[prog].Result().IDB[pred].Tuples()
	same := len(mine) == len(res.Tuples)
	for i := 0; same && i < len(mine); i++ {
		same = datalog.CompareTuples(mine[i], res.Tuples[i]) == 0
	}
	if !same {
		return fmt.Errorf("trace: replayed %s view (%d tuples) differs from the service's (%d)", prog, len(mine), len(res.Tuples))
	}
	return nil
}

// writeTraces writes every traced workload's spans to path.
func (e *env) writeTraces(path string) error {
	b, err := json.Marshal(e.traces)
	if err != nil {
		return err
	}
	return writeFile(path, b)
}
