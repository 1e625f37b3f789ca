package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// env is what the runs of one invocation share.
type env struct {
	root string
	// start brings up a server over a scratch directory (recovering from a
	// data directory already in it) and returns once it answers.
	start func(dir string, universe int) (*server, error)
	size  sizing
	tmp   string // scratch directory for server data dirs and logs
	n     int    // servers started, for unique scratch names
	// traces holds each traced workload's spans until the benchmark ends.
	traces map[string][]span
}

func (e *env) scratch() string {
	e.n++
	return filepath.Join(e.tmp, fmt.Sprintf("srv%d", e.n))
}

// options of one run.
type options struct {
	seed    int64
	seconds float64
	// setups is how many servers are set up and timed; setup_s is their
	// median and the last one serves the run.
	setups int
	trace  bool
}

// result is what one run of one workload reports.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Valid     bool     `json:"valid"`
	Invalid   []string `json:"invalid,omitempty"` // why not
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"` // the first few failures
	Samples   int      `json:"samples"`          // open-loop samples behind p50_ms and p95_ms
	EndToEnd  metrics  `json:"end_to_end"`
	PerLayer  metrics  `json:"per_layer"`
}

// metric is a measured metric of either kind.
func (res *result) metric(name string) (value, bool) {
	if v, ok := res.EndToEnd[name]; ok {
		return v, true
	}
	v, ok := res.PerLayer[name]
	return v, ok
}

// sample is one op as the generator saw it.
type sample struct {
	kind opKind
	// service is send → last byte read; latency is due time → last byte
	// read (open loop only); firstRow is send → first NDJSON tuple.
	service, latency, firstRow time.Duration
	ok                         bool
}

// step is one set-up commit with the answer the server owes it.
type step struct {
	ins      []edge
	version  int64
	inserted int
}

// run is one workload being driven against one server.
type run struct {
	w    *workload
	gen  *generator
	orc  *oracle
	plan []step // the set-up commits
	cl   *client
	srv  *server

	commitMu sync.Mutex // one commit in flight: its version must be known before it is sent
	churn    *churn     // guarded by commitMu

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errs              []string

	// The SSE subscriber's side of commit-churn: when each version's commit
	// was sent and its delta frame read, and the tc view replayed from the
	// frames alone.
	subMu    sync.Mutex
	sentAt   map[int64]time.Time
	notified []float64 // ms
	replayed map[[2]int]struct{}
}

func (r *run) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// newRun derives the seed's inputs and the set-up's expected answers.
func newRun(w *workload, size sizing, seed int64, window time.Duration) *run {
	r := &run{w: w, gen: newGenerator(seed, size, w, window), orc: newOracle(size.Universe, w.Live),
		sentAt: map[int64]time.Time{}}
	r.churn = r.gen.churn()
	for at := 0; at < len(r.gen.setup); at += setupBatch {
		ins := r.gen.setup[at:min(at+setupBatch, len(r.gen.setup))]
		version, inserted, _ := r.orc.advance(ins, nil)
		r.plan = append(r.plan, step{ins, version, inserted})
	}
	r.orc.latest() // derive the set-up version's reference now, off the clock
	return r
}

// setUp brings a fresh server to the common state over /v1 and returns the
// time from its exec to the last register acknowledged.
func (r *run) setUp(e *env) (*server, time.Duration, error) {
	srv, err := e.start(e.scratch(), r.gen.size.Universe)
	if err != nil {
		return nil, 0, err
	}
	cl := newClient(srv.base, 1)
	defer cl.close()
	err = func() error {
		for _, s := range r.plan {
			resp, err := cl.commit(s.ins, nil)
			if err != nil {
				return err
			}
			if err := checkCommit(resp, s.version, s.inserted, 0); err != nil {
				return err
			}
		}
		ref := r.orc.latest()
		for _, p := range programs {
			resp, err := cl.register(p.name, p.source)
			if err != nil {
				return err
			}
			if resp.Version != ref.version || (p.view != "" && resp.IDBSizes[p.view] != len(ref.view(p.name))) {
				return fmt.Errorf("register %s: version %d sizes %v, want version %d and %d %s tuples",
					p.name, resp.Version, resp.IDBSizes, ref.version, len(ref.view(p.name)), p.view)
			}
		}
		return nil
	}()
	took := time.Since(srv.started)
	if err != nil {
		srv.kill()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return srv, took, nil
}

func predOf(prog string) string {
	if prog == "tc" {
		return "S"
	}
	return "J"
}

// exec sends op i of a phase, times it, then checks the answer against the
// oracle.
func (r *run) exec(phase, i int) sample {
	o := r.gen.op(phase, i)
	r.attempted.Add(1)
	s := sample{kind: o.Kind}
	var err error
	switch o.Kind {
	case opPage, opGoalTC:
		ref := r.orc.latest()
		req := service.QueryRequestJSON{Program: "tc"}
		var after *[2]int
		if o.Kind == opPage {
			var page int
			req.Program, page = ref.locate(o.Pos)
			after = ref.before(req.Program, page)
			req.Limit, req.Cursor = pageLimit, cursorOf(after)
		} else {
			req.Bind = []*int{&o.X, nil}
		}
		req.Pred = predOf(req.Program)
		if !r.w.Live {
			req.Version = &ref.version // reads at a fixed version say so
		}
		sent := time.Now()
		var resp *service.QueryResponse
		resp, err = r.cl.query(req)
		s.service = time.Since(sent)
		if err == nil {
			if ref, err = r.orc.at(resp.Version); err == nil {
				if o.Kind == opPage {
					err = ref.checkPage(req.Program, after, resp)
				} else {
					err = ref.checkGoal("tc", o.X, resp)
				}
			}
		}
	case opGoalHop2:
		ref := r.orc.latest()
		sent := time.Now()
		var got *streamed
		got, err = r.cl.queryStream(service.QueryRequestJSON{
			Program: "hop2", Pred: "J", Bind: []*int{&o.X, nil}, Limit: streamLimit, Version: &ref.version,
		})
		s.service = time.Since(sent)
		if err == nil {
			if !got.FirstRow.IsZero() {
				s.firstRow = got.FirstRow.Sub(sent)
			}
			if got.Header.Version != ref.version {
				err = fmt.Errorf("stream hop2(%d,_): version %d, want %d", o.X, got.Header.Version, ref.version)
			} else {
				err = ref.checkStream("hop2", o.X, got.Rows, &got.Trailer)
			}
		}
	case opCommit:
		r.commitMu.Lock()
		ins, del := r.churn.next(phase)
		version, inserted, deleted := r.orc.advance(ins, del)
		sent := time.Now()
		r.subMu.Lock()
		r.sentAt[version] = sent
		r.subMu.Unlock()
		var resp *service.CommitResponse
		resp, err = r.cl.commit(ins, del)
		s.service = time.Since(sent)
		r.commitMu.Unlock()
		if err == nil {
			err = checkCommit(resp, version, inserted, deleted)
		}
	}
	if err != nil {
		r.fail(err)
	}
	s.ok = err == nil
	return s
}

// closedLoop runs the phase's op sequence back to back on every client
// connection for d: each sends its next request when its last one is
// answered.
func (r *run) closedLoop(phase int, d time.Duration) (samples []sample, elapsed time.Duration) {
	var next atomic.Int64
	per := make([][]sample, r.w.Clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				per[c] = append(per[c], r.exec(phase, i))
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples, elapsed
}

// opened is what the open loop measured besides its samples.
type opened struct {
	samples    []sample
	elapsed    time.Duration
	lateMs     []float64 // how late each on-time op left, after its sleep
	backlogMax int       // most ops due but not yet sent, seen at any send
	backlogEnd int       // ops due but not yet sent when the window closed
}

// spinMargin is how close to a due time the dispatcher stops sleeping and
// spins: timers on the sandbox fire on a ~1.1 ms grid, and a request sent a
// millisecond late is a millisecond of latency the server never caused.
const spinMargin = 2 * time.Millisecond

func waitUntil(at time.Time) {
	for {
		d := time.Until(at)
		switch {
		case d <= 0:
			return
		case d > spinMargin:
			time.Sleep(d - spinMargin)
		default:
			runtime.Gosched()
		}
	}
}

// openLoop sends op i at due[i] after the start, whatever became of the ops
// before it, on whichever connection is free; a request is timed from the
// instant it was due, so a stall is charged to every request it delays.
func (r *run) openLoop() opened {
	due, window := r.gen.due(), r.gen.window
	var out opened
	var mu sync.Mutex
	jobs := make(chan int) // unbuffered: handed over when a connection is free
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < r.w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for i := range jobs {
				s := r.exec(phaseOpen, i)
				s.latency = time.Since(start.Add(due[i]))
				mine = append(mine, s)
			}
			mu.Lock()
			out.samples = append(out.samples, mine...)
			mu.Unlock()
		}()
	}
	for i := range due {
		at := start.Add(due[i])
		now := time.Since(start)
		if now < due[i] {
			waitUntil(at)
			out.lateMs = append(out.lateMs, float64(time.Since(at))/1e6)
		} else {
			// Behind schedule: every op from i up to the last one already
			// due is waiting for a connection.
			behind := sort.Search(len(due)-i, func(k int) bool { return due[i+k] > now })
			out.backlogMax = max(out.backlogMax, behind)
			if now >= window && out.backlogEnd == 0 {
				out.backlogEnd = len(due) - i
			}
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// subscription runs the SSE subscriber of commit-churn until stop is called.
func (r *run) subscription() (stop func() error, err error) {
	r.replayed = map[[2]int]struct{}{}
	for _, t := range r.orc.latest().tc {
		r.replayed[t] = struct{}{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- r.cl.subscribe(ctx, "tc", ready, func(ev service.SubEvent, at time.Time) {
			if ev.Type != service.EventDelta {
				if ev.Type == service.EventGap {
					r.fail(fmt.Errorf("subscriber dropped: %s", ev.Reason))
				}
				return
			}
			r.subMu.Lock()
			defer r.subMu.Unlock()
			if sent, ok := r.sentAt[ev.Version]; ok {
				r.notified = append(r.notified, float64(at.Sub(sent))/1e6)
			}
			for _, d := range ev.Deltas {
				if d.Pred != "S" {
					continue
				}
				for _, t := range d.Removes {
					delete(r.replayed, [2]int{t[0], t[1]})
				}
				for _, t := range d.Adds {
					r.replayed[[2]int{t[0], t[1]}] = struct{}{}
				}
			}
		})
	}()
	select {
	case <-ready:
	case err := <-done:
		cancel()
		return nil, fmt.Errorf("subscribe: %v", err)
	}
	return func() error {
		cancel()
		return <-done
	}, nil
}

// checkViews reads both views whole at the latest version and compares
// them, and the view replayed from delta frames, with the mirror's closure.
func (r *run) checkViews() {
	ref := r.orc.latest()
	for _, prog := range []string{"tc", "hop2"} {
		r.attempted.Add(1)
		resp, err := r.cl.query(service.QueryRequestJSON{Program: prog, Pred: predOf(prog)})
		if err == nil && resp.Version != ref.version {
			err = fmt.Errorf("version %d, want %d", resp.Version, ref.version)
		}
		if err == nil {
			err = sameTuples(resp.Tuples, ref.view(prog))
		}
		if err != nil {
			r.fail(fmt.Errorf("final %s view: %w", prog, err))
		}
	}
	if r.replayed != nil {
		r.attempted.Add(1)
		r.subMu.Lock()
		defer r.subMu.Unlock()
		same := len(r.replayed) == len(ref.tc)
		for _, t := range ref.tc {
			if _, ok := r.replayed[t]; !ok {
				same = false
			}
		}
		if !same {
			r.fail(fmt.Errorf("tc view replayed from %d delta frames has %d tuples and differs from the mirror's %d",
				len(r.notified), len(r.replayed), len(ref.tc)))
		}
	}
}

// recover is the durability check: SIGKILL right after the last
// acknowledged commit, restart on the same data dir, and require the
// recovered version and tc view size to be what was acknowledged. It
// returns the restart's time to ready.
func (r *run) recover(e *env) (time.Duration, error) {
	r.srv.kill()
	srv, err := e.start(r.srv.dir, r.gen.size.Universe)
	if err != nil {
		return 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	ready := time.Since(srv.started)
	r.srv = srv
	cl := newClient(srv.base, 1)
	defer cl.close()
	st, err := cl.stats()
	if err != nil {
		return 0, err
	}
	ref := r.orc.latest()
	if st.Version != ref.version || st.Storage.RecoveredVersion != ref.version {
		return 0, fmt.Errorf("durability: recovered version %d, last acknowledged %d", st.Version, ref.version)
	}
	for _, p := range st.Programs {
		if p.Name == "tc" && p.IDBSizes["S"] == len(ref.tc) {
			return ready, nil
		}
	}
	return 0, fmt.Errorf("durability: recovered tc view does not have the reference's %d tuples: %+v", len(ref.tc), st.Programs)
}

// runWorkload is one run: set-up, warm-up, closed loop, open loop, checks.
func (e *env) runWorkload(w *workload, o options) (*result, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	warm := time.Duration(warmShare * float64(total))
	closed := time.Duration(closedShare * float64(total))
	r := newRun(w, e.size, o.seed, total-warm-closed)
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if r.srv != nil {
			r.srv.kill()
		}
		srv, took, err := r.setUp(e)
		if err != nil {
			return nil, err
		}
		r.srv = srv
		setups = append(setups, took.Seconds())
	}
	defer func() { r.srv.kill() }()
	conns := w.Clients
	if w.Subscribe {
		conns++
	}
	r.cl = newClient(r.srv.base, conns)
	defer r.cl.close()

	stopSub := func() error { return nil }
	if w.Subscribe {
		var err error
		if stopSub, err = r.subscription(); err != nil {
			return nil, err
		}
	}

	r.closedLoop(phaseWarm, warm)
	closedSamples, closedFor := r.closedLoop(phaseClosed, closed)

	// Scrapes sit just outside the open-loop window, never inside it.
	before, err := r.cl.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, _, err := r.srv.usage()
	if err != nil {
		return nil, err
	}
	open := r.openLoop()
	cpu1, hwm, err := r.srv.usage()
	if err != nil {
		return nil, err
	}
	after, err := r.cl.scrape()
	if err != nil {
		return nil, err
	}
	st, err := r.cl.stats()
	if err != nil {
		return nil, err
	}

	r.checkViews()
	if err := stopSub(); err != nil {
		r.fail(err)
	}
	recovery := time.Duration(0)
	if w.Name == "commit-churn" {
		if recovery, err = r.recover(e); err != nil {
			return nil, err
		}
	}

	res := &result{Workload: w.Name, Seed: o.seed, Seconds: o.seconds,
		EndToEnd: metrics{}, PerLayer: metrics{}}
	okOps := func(ss []sample) (n int) {
		for _, s := range ss {
			if s.ok {
				n++
			}
		}
		return n
	}
	var lat []float64
	for _, s := range open.samples {
		if s.ok && w.Measured(s.kind) {
			lat = append(lat, float64(s.latency)/1e6)
		}
	}
	sort.Float64s(lat)
	res.Samples = len(lat)
	p50, err50 := quantile(lat, 0.50)
	p95, err95 := quantile(lat, 0.95)
	opsDone := float64(okOps(open.samples))

	res.EndToEnd["setup_s"] = value{median(setups), "s"}
	res.EndToEnd["rss_peak_mb"] = value{hwm, "MB"}
	// The timing metrics (spec.go, timed) are declared per layer.
	res.PerLayer["ops_per_s"] = value{float64(okOps(closedSamples)) / closedFor.Seconds(), "1/s"}
	res.PerLayer["p50_ms"] = value{p50, "ms"}
	res.PerLayer["p95_ms"] = value{p95, "ms"}
	res.PerLayer["cpu_ms_per_op"] = value{ratio(float64(cpu1-cpu0)/1e6, opsDone), "ms"}

	r.layerMetrics(res.PerLayer, before, after, st, open, recovery)

	// Validity: a run that cannot support its percentiles, fell behind its
	// own schedule, or whose generator ran late measured something other
	// than the workload.
	lateP95 := res.PerLayer["loadgen.late_p95_ms"].Value
	if err50 != nil || err95 != nil || len(lat) < minSamples {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%d measured open-loop samples, need %d", len(lat), minSamples))
	}
	if limit := int(maxBacklogSecs * w.Rate); open.backlogEnd > limit {
		res.Invalid = append(res.Invalid, fmt.Sprintf("backlog of %d ops at window end, over one second of arrivals (%d)", open.backlogEnd, limit))
	}
	if lateP95 > maxLateP95Ms {
		res.Invalid = append(res.Invalid, fmt.Sprintf("generator lateness p95 %.3f ms, over %.0f ms", lateP95, maxLateP95Ms))
	}
	res.Valid = len(res.Invalid) == 0
	res.Attempted, res.Failed, res.Errors = r.attempted.Load(), r.failed.Load(), r.errs

	if o.trace {
		if err := e.traceWorkload(r, res.PerLayer); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerMetrics fills the per-layer metrics a normal run can measure: deltas
// of the server's own /v1/metrics series over the open-loop window
// (source "scrape") and what the generator clocked itself ("client").
func (r *run) layerMetrics(m metrics, before, after map[string]float64, st *service.Stats, open opened, recovery time.Duration) {
	d := func(name string) float64 { return after[name] - before[name] }
	set := func(name string, v float64, unit string) { m[name] = value{v, unit} }
	serviceMs := func(keep func(opKind) bool) []float64 {
		var out []float64
		for _, s := range open.samples {
			if s.ok && keep(s.kind) {
				out = append(out, float64(s.service)/1e6)
			}
		}
		return out
	}
	latencyP50 := func(k opKind) float64 {
		var out []float64
		for _, s := range open.samples {
			if s.ok && s.kind == k {
				out = append(out, float64(s.latency)/1e6)
			}
		}
		return quantileOrZero(out, 0.5)
	}
	ops := float64(len(serviceMs(func(opKind) bool { return true })))
	commits := d("datalog_commits_total")

	// service (http.go, wire.go): what HTTP and JSON add around the
	// service call. The server's histograms cover materialized queries and
	// commits, not NDJSON streams, so the client mean is over the same ops.
	serverQueryMs := 1000 * ratio(d("datalog_query_seconds_sum"), d("datalog_query_seconds_count"))
	serverCommitMs := 1000 * ratio(d("datalog_commit_seconds_sum"), d("datalog_commit_seconds_count"))
	overhead := 0.0
	if r.w.Name == "commit-churn" {
		overhead = mean(serviceMs(func(k opKind) bool { return k == opCommit })) - serverCommitMs
	} else {
		overhead = mean(serviceMs(func(k opKind) bool { return k == opPage || k == opGoalTC })) - serverQueryMs
	}
	set("service.http_overhead_ms", overhead, "ms")
	set("service.server_query_ms", serverQueryMs, "ms")
	set("service.server_commit_ms", serverCommitMs, "ms")
	set("service.cache_hit_ratio", ratio(d("datalog_cache_hits_total"), d("datalog_cache_hits_total")+d("datalog_cache_misses_total")), "ratio")
	set("service.cache_entries", after["datalog_cache_entries"], "count")
	set("service.scratch_evals_per_op", ratio(d("datalog_scratch_evals_total"), ops), "1/op")

	set("magic.rewrite_hit_ratio", ratio(d("datalog_rewrite_cache_hits_total"), d("datalog_rewrite_cache_hits_total")+d("datalog_rewrite_cache_misses_total")), "ratio")
	set("magic.demand_facts_mean", ratio(d("datalog_magic_demand_facts_sum"), d("datalog_magic_demand_facts_count")), "count")
	set("plan.cache_hit_ratio", ratio(d("datalog_plan_cache_hits_total"), d("datalog_plan_cache_hits_total")+d("datalog_plan_cache_misses_total")), "ratio")
	set("plan.built", d("datalog_plans_built_total"), "count")
	set("datalog.rounds_per_op", ratio(d("datalog_eval_rounds_total"), ops), "1/op")
	set("datalog.maintain_ms_per_commit", 1000*ratio(d("datalog_maintain_seconds_sum"), commits), "ms")

	streams := d("datalog_stream_queries_total")
	var firstRow []float64
	for _, s := range open.samples {
		if s.ok && s.firstRow > 0 {
			firstRow = append(firstRow, float64(s.firstRow)/1e6)
		}
	}
	set("stream.first_row_p50_ms", quantileOrZero(firstRow, 0.5), "ms")
	set("stream.fallback_ratio", ratio(d("datalog_stream_fallbacks_total"), streams), "ratio")
	set("stream.rows_per_query", ratio(d("datalog_stream_rows_total"), streams), "count")
	set("stream.peak_buffered_rows", after["datalog_stream_peak_buffered_rows"], "count")

	set("storage.wal_bytes_per_commit", ratio(d("datalog_wal_bytes_total"), commits), "B")
	set("storage.fsyncs_per_commit", ratio(d("datalog_wal_fsyncs_total"), commits), "count")
	set("storage.fsync_ms_per_commit", ratio(d("datalog_wal_sync_nanos_total")/1e6, commits), "ms")
	set("storage.checkpoints", after["datalog_checkpoints_total"], "count")
	set("storage.recovery_s", recovery.Seconds(), "s")

	r.subMu.Lock()
	notified := append([]float64(nil), r.notified...)
	r.subMu.Unlock()
	sort.Float64s(notified)
	n50, _ := quantile(notified, 0.5) // 0 without a subscriber
	n95, _ := quantile(notified, 0.95)
	set("subscribe.notify_p50_ms", n50, "ms")
	set("subscribe.notify_p95_ms", n95, "ms")
	set("subscribe.dropped", float64(st.Subscribe.Dropped), "count")

	set("loadgen.samples", float64(len(open.samples)), "count")
	set("loadgen.late_p95_ms", quantileOrZero(open.lateMs, 0.95), "ms")
	set("loadgen.backlog_max", float64(open.backlogMax), "count")
	mixed := r.w.Name == "mixed"
	pick := func(on bool, k opKind) float64 {
		if !on {
			return 0
		}
		return latencyP50(k)
	}
	set("loadgen.mixed.page_p50_ms", pick(mixed, opPage), "ms")
	set("loadgen.mixed.goal_p50_ms", pick(mixed, opGoalTC), "ms")
	set("loadgen.mixed.commit_p50_ms", pick(mixed, opCommit), "ms")
	set("loadgen.goal.tc_p50_ms", pick(r.w.Name == "goal-read", opGoalTC), "ms")
	set("loadgen.goal.hop2_p50_ms", pick(r.w.Name == "goal-read", opGoalHop2), "ms")
}

// cleanup removes the invocation's scratch directory.
func (e *env) cleanup() { _ = os.RemoveAll(e.tmp) }
