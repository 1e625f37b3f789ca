// Command datalog evaluates a Datalog(≠) program against an EDB facts
// file and prints the goal relation.
//
// Usage:
//
//	datalog -program prog.dl -facts db.facts [-naive] [-noindex] [-all]
//	        [-goal 'S(0,_)'] [-explain 'S(0,_)'] [-stats]
//	        [-limit N] [-stream]
//	        [-server http://host:8344 [-name cli] [-subscribe] [-from N]]
//
// With no file arguments it runs the transitive-closure quickstart on a
// built-in example. With -server the program is registered on a running
// cmd/serve instance, the facts are committed there, and the relations
// are fetched over the /v1 API instead of being evaluated locally.
//
// -goal switches to goal-directed evaluation: the argument is a goal
// pattern — constants bind positions, `_` (or any variable) leaves them
// free — and the program is magic-set rewritten for that adornment
// before evaluation, deriving only the facts the bound query demands.
// With -server the binding travels as the query's "bind" field and the
// rewrite runs server-side.
//
// -explain takes the same pattern shape but prints how the query runs
// instead of tuples: per rule the compiled atom order, the probe columns
// and streaming decision of each join step, and the rows the evaluation
// derived. A pattern with bound positions explains the magic-set-rewritten,
// seeded program — exactly what a bound query executes. With -server the
// same report comes from POST /v1/explain over the server's data.
//
// -stream evaluates through the streaming executor: answers print as
// they are derived (in derivation order, not sorted); a recursive
// program's fixpoint is evaluated on the first pull. -limit N stops after N
// answers — under -stream this terminates evaluation early instead of
// discarding tuples. With -server, -stream requests NDJSON from
// /v1/query and prints tuples as the server produces them, and -limit
// travels as the query's "limit" field.
//
// -subscribe (requires -server) registers the program, commits the
// facts, then follows GET /v1/subscribe: one line per event as commits
// land — the hello with the anchor version, per-commit tuple adds and
// removes (restricted by -goal to a bound slice, e.g. -goal 'S(0,_)'),
// and the terminal gap event if the stream loses continuity. -from N
// resumes from version N, replaying retained deltas first. The stream
// runs until interrupted.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/magic"
	"repro/internal/service"
	"repro/internal/stream"
)

func main() {
	progPath := flag.String("program", "", "Datalog(≠) program file")
	factsPath := flag.String("facts", "", "EDB facts file (universe + facts)")
	naive := flag.Bool("naive", false, "use naive instead of semi-naive evaluation")
	noindex := flag.Bool("noindex", false, "disable join indexes")
	all := flag.Bool("all", false, "print every IDB relation, not just the goal")
	stats := flag.Bool("stats", false, "print evaluation statistics")
	goalPat := flag.String("goal", "", "goal pattern like 'S(0,_)': evaluate goal-directed via magic-set rewriting")
	explainPat := flag.String("explain", "", "pattern like 'S(0,_)': print how the query runs (compiled atom order, probe columns, actual rows) instead of tuples")
	limit := flag.Int("limit", 0, "stop after N answers (0 = all); with -stream this ends evaluation early")
	streamF := flag.Bool("stream", false, "evaluate through the streaming executor, printing answers as they are derived (NDJSON with -server)")
	server := flag.String("server", "", "run against a cmd/serve instance at this base URL instead of evaluating locally")
	name := flag.String("name", "cli", "registration name used with -server")
	subscribe := flag.Bool("subscribe", false, "with -server: follow the program's live delta stream (/v1/subscribe) instead of querying")
	from := flag.Int64("from", -1, "with -subscribe: resume from this version, replaying retained deltas (-1 = live from now)")
	flag.Parse()

	progSrc := exampleProgram
	factsSrc := exampleFacts
	if *progPath != "" {
		b, err := os.ReadFile(*progPath)
		fatalIf(err)
		progSrc = string(b)
	}
	if *factsPath != "" {
		b, err := os.ReadFile(*factsPath)
		fatalIf(err)
		factsSrc = string(b)
	}

	prog, err := core.ParseProgram(progSrc)
	fatalIf(err)
	db, err := core.ParseDatabase(factsSrc)
	fatalIf(err)

	var goal *datalog.Goal
	if *goalPat != "" {
		g, err := datalog.ParseGoal(*goalPat)
		fatalIf(err)
		goal = &g
	}

	if *server != "" {
		if *explainPat != "" {
			g, err := datalog.ParseGoal(*explainPat)
			fatalIf(err)
			fatalIf(explainRemote(*server, *name, progSrc, db, g))
			return
		}
		if *subscribe {
			fatalIf(subscribeRemote(*server, *name, progSrc, db, goal, *from))
			return
		}
		fatalIf(runRemote(*server, *name, progSrc, prog, db, *all, goal, *limit, *streamF))
		return
	}
	if *subscribe {
		fatalIf(errors.New("-subscribe requires -server"))
	}

	opts := datalog.DefaultOptions.
		WithSemiNaive(!*naive).
		WithIndexes(!*noindex)

	if *explainPat != "" {
		g, err := datalog.ParseGoal(*explainPat)
		fatalIf(err)
		fatalIf(explainLocal(prog, db, g, opts))
		return
	}

	if *streamF {
		fatalIf(runStream(prog, db, goal, opts, *all, *limit))
		return
	}

	if goal != nil {
		fatalIf(runGoal(prog, db, *goal, opts, *stats))
		return
	}

	res, err := datalog.Eval(prog, db, opts)
	fatalIf(err)

	if *all {
		// Deterministic output: relations in predicate-name order, not
		// map-iteration order.
		names := make([]string, 0, len(res.IDB))
		for name := range res.IDB {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Print(core.FormatRelation(name, res.IDB[name]))
		}
	} else if *limit > 0 {
		printTuples(prog.Goal, res.Goal(prog).Tuples(), *limit)
	} else {
		fmt.Print(core.FormatRelation(prog.Goal, res.Goal(prog)))
	}
	if *stats {
		info := datalog.Analyze(prog)
		fmt.Printf("rounds=%d derivations=%d recursive=%v idbs=%v edbs=%v\n",
			res.Rounds, res.Derivations, info.Recursive, info.IDBs, info.EDBs)
		if res.Stats != nil {
			fmt.Printf("time=%s firings=%d new=%d duplicates=%d index_probes=%d\n",
				time.Duration(res.Stats.TimeNs), res.Stats.Firings,
				res.Stats.New, res.Stats.Duplicates, res.Stats.Probes)
			for _, rs := range res.Stats.Rules {
				fmt.Printf("  rule %q: firings=%d new=%d duplicates=%d probes=%d time=%s\n",
					rs.Rule, rs.Firings, rs.New, rs.Duplicates, rs.Probes,
					time.Duration(rs.TimeNs))
			}
		}
	}
}

// printTuples prints up to limit tuples (0 = all) in the relation
// format core.FormatRelation uses.
func printTuples(name string, tuples []datalog.Tuple, limit int) {
	if limit > 0 && len(tuples) > limit {
		tuples = tuples[:limit]
	}
	fmt.Printf("%s (%d tuples):\n", name, len(tuples))
	for _, t := range tuples {
		fmt.Println("  " + t.String())
	}
}

// runStream evaluates through the streaming executor, printing answers
// in arrival (derivation) order as they are produced; a recursive slice's
// fixpoint is computed on the first pull. A bound goal streams the seeded
// magic-set rewrite's answer predicate under the goal filter.
func runStream(prog *datalog.Program, db *datalog.Database, goal *datalog.Goal, opts datalog.Options, all bool, limit int) error {
	ctx := context.Background()
	run := func(p *datalog.Program, pred, label string, filter *datalog.Goal) error {
		opt := stream.Options{Eval: opts, Limit: limit, Filter: filter}
		st, err := stream.Open(ctx, p, db, pred, opt)
		if err != nil {
			return err
		}
		defer st.Close()
		fmt.Printf("%s (streaming):\n", label)
		n := 0
		for {
			t, ok := st.Next()
			if !ok {
				break
			}
			fmt.Println("  " + t.String())
			n++
		}
		if err := st.Err(); err != nil {
			return err
		}
		c := st.Counters()
		fmt.Printf("count=%d pulls=%d peak_buffered=%d rounds=%d\n", n, c.Pulls, c.PeakBuffered, c.Rounds)
		return nil
	}
	if goal != nil {
		rw, err := magic.NewRewrite(prog, *goal, magic.BoundFirstSIP{})
		if err != nil {
			return err
		}
		seeded, err := rw.Seeded(*goal)
		if err != nil {
			return err
		}
		return run(seeded, rw.GoalPred, goal.String(), goal)
	}
	preds := []string{prog.Goal}
	if all {
		preds = preds[:0]
		for p := range prog.IDBs() {
			preds = append(preds, p)
		}
		sort.Strings(preds)
	}
	for _, pred := range preds {
		if err := run(prog, pred, pred, nil); err != nil {
			return err
		}
	}
	return nil
}

// runGoal answers one bound goal pattern locally through the magic-set
// pipeline and prints the restricted answer set (plus the rewrite's
// statistics with -stats).
func runGoal(prog *datalog.Program, db *datalog.Database, goal datalog.Goal, opts datalog.Options, stats bool) error {
	res, err := magic.EvalGoal(context.Background(), prog, db, goal, magic.Options{Eval: opts})
	if err != nil {
		return err
	}
	fmt.Printf("%s (%d tuples):\n", goal.String(), len(res.Answers))
	for _, t := range res.Answers {
		fmt.Println("  " + t.String())
	}
	if stats {
		st := res.Stats
		fmt.Printf("adornment=%s sip=%s rules=%d magic_preds=%d sup_preds=%d\n",
			st.Adornment, st.SIP, st.RewrittenRules, st.MagicPreds, st.SupPreds)
		fmt.Printf("demand_facts=%d sup_facts=%d answer_facts=%d answers=%d rounds=%d derivations=%d\n",
			st.DemandFacts, st.SupFacts, st.AnswerFacts, st.Answers, st.Rounds, st.Derivations)
	}
	return nil
}

// explainLocal explains the query the way the service would — bound
// patterns through the magic rewrite, free patterns directly — over the
// local database.
func explainLocal(prog *datalog.Program, db *datalog.Database, g datalog.Goal, opts datalog.Options) error {
	if !prog.IDBs()[g.Pred] {
		return fmt.Errorf("%q is not an IDB predicate of the program", g.Pred)
	}
	target, pred := prog, g.Pred
	if slices.Contains(g.Bound, true) {
		rw, err := magic.NewRewrite(prog, g, magic.BoundFirstSIP{})
		if err != nil {
			return err
		}
		if target, err = rw.Seeded(g); err != nil {
			return err
		}
		pred = rw.GoalPred
	}
	resp, err := service.ExplainProgram(context.Background(), target, db, pred, opts)
	if err != nil {
		return err
	}
	printExplain(resp, g)
	return nil
}

// printExplain renders an explain report: per rule the compiled order (and
// the written one when they differ), each join step's probe columns and
// streaming decision, and the counters of the evaluation.
func printExplain(resp service.ExplainResponse, g datalog.Goal) {
	label := resp.Goal
	if label == "" {
		label = g.String()
	}
	fmt.Printf("explain %s  [rounds %d]\n", label, resp.Rounds)
	for i, r := range resp.Rules {
		mark := ""
		if r.Reordered {
			mark = "  (reordered)"
		}
		fmt.Printf("rule %d: %s%s\n", i+1, r.Compiled, mark)
		if r.Reordered {
			fmt.Printf("  textual: %s\n", r.Original)
		}
		for j, st := range r.Steps {
			cols := st.ProbeCols
			if cols == nil {
				cols = []int{}
			}
			fmt.Printf("  %d. %-24s probe=%v", j+1, st.Atom, cols)
			if st.Via != "" {
				fmt.Printf("  %s/%s", st.Exec, st.Via)
			}
			fmt.Println()
		}
		fmt.Printf("  actual: derived=%d new=%d firings=%d time=%s\n",
			r.ActualRows, r.NewRows, r.Firings, time.Duration(r.TimeNs))
	}
}

// explainRemote registers the program, commits the facts, and prints the
// server's report from POST /v1/explain.
func explainRemote(base, name, progSrc string, db *datalog.Database, g datalog.Goal) error {
	base = strings.TrimRight(base, "/")
	var reg service.RegisterResponse
	if err := call(base+"/v1/register", service.RegisterRequest{Name: name, Program: progSrc}, &reg); err != nil {
		return err
	}
	var commit service.CommitRequest
	for _, rel := range db.Names() {
		for _, t := range db.Relation(rel).Tuples() {
			commit.Insert = append(commit.Insert, service.FactJSON{Pred: rel, Tuple: t})
		}
	}
	if len(commit.Insert) > 0 {
		var committed service.CommitResponse
		if err := call(base+"/v1/commit", commit, &committed); err != nil {
			return err
		}
	}
	req := service.QueryRequestJSON{Program: name, Pred: g.Pred}
	for i, b := range g.Bound {
		if b {
			v := g.Value[i]
			req.Bind = append(req.Bind, &v)
		} else {
			req.Bind = append(req.Bind, nil)
		}
	}
	var resp service.ExplainResponse
	if err := call(base+"/v1/explain", req, &resp); err != nil {
		return err
	}
	printExplain(resp, g)
	return nil
}

// runRemote registers the program on the server, commits the facts, and
// prints the queried relations — the same output shape as local mode.
// With a goal pattern the query carries the binding in its "bind" field
// and the server answers it goal-directed. With streamQ the query asks
// for NDJSON and tuples print as the server produces them.
func runRemote(base, name, progSrc string, prog *datalog.Program, db *datalog.Database, all bool, goal *datalog.Goal, limit int, streamQ bool) error {
	base = strings.TrimRight(base, "/")
	var reg service.RegisterResponse
	if err := call(base+"/v1/register", service.RegisterRequest{Name: name, Program: progSrc}, &reg); err != nil {
		return err
	}
	var commit service.CommitRequest
	for _, rel := range db.Names() {
		for _, t := range db.Relation(rel).Tuples() {
			commit.Insert = append(commit.Insert, service.FactJSON{Pred: rel, Tuple: t})
		}
	}
	var committed service.CommitResponse
	if len(commit.Insert) > 0 {
		if err := call(base+"/v1/commit", commit, &committed); err != nil {
			return err
		}
	}
	if goal != nil {
		bind := make([]*int, len(goal.Bound))
		for i, b := range goal.Bound {
			if b {
				v := goal.Value[i]
				bind[i] = &v
			}
		}
		req := service.QueryRequestJSON{Program: name, Pred: goal.Pred, Bind: bind, Limit: limit}
		if streamQ {
			return callStream(base+"/v1/query", req, goal.String())
		}
		var q service.QueryResponse
		if err := call(base+"/v1/query", req, &q); err != nil {
			return err
		}
		label := q.Goal
		if label == "" {
			label = goal.String()
		}
		fmt.Printf("%s (%d tuples):\n", label, q.Count)
		for _, t := range q.Tuples {
			fmt.Println("  " + datalog.Tuple(t).String())
		}
		if q.DemandFacts != nil {
			fmt.Printf("origin=%s demand_facts=%d\n", q.Origin, *q.DemandFacts)
		}
		return nil
	}
	preds := []string{prog.Goal}
	if all {
		preds = preds[:0]
		for p := range prog.IDBs() {
			preds = append(preds, p)
		}
		sort.Strings(preds)
	}
	for _, pred := range preds {
		req := service.QueryRequestJSON{Program: name, Pred: pred, Limit: limit}
		if streamQ {
			if err := callStream(base+"/v1/query", req, pred); err != nil {
				return err
			}
			continue
		}
		var q service.QueryResponse
		if err := call(base+"/v1/query", req, &q); err != nil {
			return err
		}
		fmt.Printf("%s (%d tuples):\n", pred, q.Count)
		for _, t := range q.Tuples {
			fmt.Println("  " + datalog.Tuple(t).String())
		}
		if q.NextCursor != "" {
			fmt.Printf("next_cursor=%s\n", q.NextCursor)
		}
	}
	return nil
}

// subscribeRemote registers the program, commits the facts, and follows
// the server's SSE delta stream, printing one line per event until the
// stream ends or the process is interrupted. A bound -goal pattern
// travels as the goal query parameter, so the server filters deltas to
// the demand slice; -from resumes from a version, replaying retained
// deltas first.
func subscribeRemote(base, name, progSrc string, db *datalog.Database, goal *datalog.Goal, from int64) error {
	base = strings.TrimRight(base, "/")
	var reg service.RegisterResponse
	if err := call(base+"/v1/register", service.RegisterRequest{Name: name, Program: progSrc}, &reg); err != nil {
		return err
	}
	var commit service.CommitRequest
	for _, rel := range db.Names() {
		for _, t := range db.Relation(rel).Tuples() {
			commit.Insert = append(commit.Insert, service.FactJSON{Pred: rel, Tuple: t})
		}
	}
	if len(commit.Insert) > 0 {
		var committed service.CommitResponse
		if err := call(base+"/v1/commit", commit, &committed); err != nil {
			return err
		}
	}

	u := fmt.Sprintf("%s/v1/subscribe?program=%s&from=%d", base, url.QueryEscape(name), from)
	if goal != nil {
		u += "&goal=" + url.QueryEscape(goal.String())
	}
	r, err := http.Get(u)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e service.ErrorEnvelope
		if err := json.NewDecoder(r.Body).Decode(&e); err == nil && e.Message != "" {
			return fmt.Errorf("server: %s (%s)", e.Message, e.Code)
		}
		return fmt.Errorf("server: %s", r.Status)
	}

	// SSE framing: data: lines carry the event JSON, a blank line ends
	// each frame; event:/id: lines duplicate fields already in the JSON.
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev service.SubEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return fmt.Errorf("subscribe: bad event payload: %w", err)
		}
		switch ev.Type {
		case service.EventHello:
			fmt.Printf("hello program=%s version=%d (snapshot your view here)\n", ev.Program, ev.Version)
		case service.EventDelta:
			fmt.Printf("version %d:\n", ev.Version)
			for _, pd := range ev.Deltas {
				for _, t := range pd.Adds {
					fmt.Printf("  + %s%s\n", pd.Pred, datalog.Tuple(t).String())
				}
				for _, t := range pd.Removes {
					fmt.Printf("  - %s%s\n", pd.Pred, datalog.Tuple(t).String())
				}
			}
		case service.EventGap:
			fmt.Printf("gap at version %d (%s): re-query at version %d and resubscribe with -from %d\n",
				ev.Version, ev.Reason, ev.Resume, ev.Resume)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("subscribe stream: %w", err)
	}
	fmt.Println("stream closed by server")
	return nil
}

// callStream POSTs a query with "stream": true and prints the NDJSON
// response — header line, tuples as they arrive, trailer — line by line.
func callStream(url string, req service.QueryRequestJSON, label string) error {
	req.Stream = true
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e service.ErrorEnvelope
		if err := json.NewDecoder(r.Body).Decode(&e); err == nil && e.Message != "" {
			return fmt.Errorf("server: %s (%s)", e.Message, e.Code)
		}
		return fmt.Errorf("server: %s", r.Status)
	}
	dec := json.NewDecoder(r.Body)
	var hdr service.StreamHeaderJSON
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("stream header: %w", err)
	}
	fmt.Printf("%s (streaming, origin=%s, version=%d):\n", label, hdr.Origin, hdr.Version)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		var tuple []int
		if err := json.Unmarshal(raw, &tuple); err == nil {
			fmt.Println("  " + datalog.Tuple(tuple).String())
			continue
		}
		var tr service.StreamTrailerJSON
		if err := json.Unmarshal(raw, &tr); err != nil {
			return fmt.Errorf("stream trailer: %w", err)
		}
		if tr.Error != "" {
			return fmt.Errorf("server stream: %s", tr.Error)
		}
		fmt.Printf("count=%d", tr.Count)
		if tr.NextCursor != "" {
			fmt.Printf(" next_cursor=%s", tr.NextCursor)
		}
		if tr.Truncated {
			fmt.Print(" truncated=true")
		}
		fmt.Println()
		return nil
	}
}

// call POSTs a JSON body and decodes the JSON answer, surfacing the
// server's {"error": ...} payloads as errors.
func call(url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e service.ErrorEnvelope
		if err := json.NewDecoder(r.Body).Decode(&e); err == nil && e.Message != "" {
			return fmt.Errorf("server: %s (%s)", e.Message, e.Code)
		}
		return fmt.Errorf("server: %s", r.Status)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// fatalIf prints err behind the command's name and exits 1. The library's
// own errors already start with "datalog: ", which is not repeated.
func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "datalog: "+strings.TrimPrefix(err.Error(), "datalog: "))
		os.Exit(1)
	}
}

const exampleProgram = `
% Example 2.2: transitive closure.
S(x, y) :- E(x, y).
S(x, y) :- E(x, z), S(z, y).
goal S.
`

const exampleFacts = `
universe 5
E(0, 1).
E(1, 2).
E(2, 3).
E(3, 4).
`
