package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datalog"
)

// subTCProgram aliases the suite-wide transitive-closure source.
const subTCProgram = tcSource

func newSubService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Universe == 0 {
		cfg.Universe = 16
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// subView is a client-side copy of the subscribed predicates, maintained
// by applying delta events.
type subView map[string]map[string]bool

func (v subView) apply(ev SubEvent) error {
	for _, pd := range ev.Deltas {
		m := v[pd.Pred]
		if m == nil {
			m = map[string]bool{}
			v[pd.Pred] = m
		}
		for _, t := range pd.Removes {
			k := datalog.Tuple(t).String()
			if !m[k] {
				return fmt.Errorf("version %d removes %s %s which the view does not hold", ev.Version, pd.Pred, k)
			}
			delete(m, k)
		}
		for _, t := range pd.Adds {
			k := datalog.Tuple(t).String()
			if m[k] {
				return fmt.Errorf("version %d adds %s %s which the view already holds", ev.Version, pd.Pred, k)
			}
			m[k] = true
		}
	}
	return nil
}

// loadView snapshots one predicate of a program at a version through the
// ordinary query path.
func loadView(t *testing.T, s *Service, program, pred string, version int64) map[string]bool {
	t.Helper()
	res, err := s.Query(QueryRequest{Program: program, Pred: pred, Version: version})
	if err != nil {
		t.Fatalf("query %s@%d: %v", pred, version, err)
	}
	m := map[string]bool{}
	for _, tp := range res.Tuples {
		m[tp.String()] = true
	}
	return m
}

func sameView(got, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range want {
		if !got[k] {
			return false
		}
	}
	return true
}

// TestSubscribeDeltaStream: a subscriber starting from a snapshot at the
// hello version reconstructs, delta by delta, exactly the view a fresh
// query returns at each event's version.
func TestSubscribeDeltaStream(t *testing.T) {
	s := newSubService(t, Config{})
	if _, err := s.Register("tc", subTCProgram); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe(SubscribeRequest{Program: "tc", FromVersion: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	hello := <-sub.Events
	if hello.Type != EventHello {
		t.Fatalf("first event is %q, want hello", hello.Type)
	}
	view := subView{"S": loadView(t, s, "tc", "S", hello.Version)}

	steps := []struct {
		insert, del []datalog.Fact
	}{
		{insert: []datalog.Fact{edge(0, 1), edge(1, 2)}},
		{insert: []datalog.Fact{edge(2, 3)}},
		{del: []datalog.Fact{edge(1, 2)}},
		{insert: []datalog.Fact{edge(1, 2)}, del: []datalog.Fact{edge(0, 1)}},
	}
	for _, step := range steps {
		info, err := s.Commit(step.insert, step.del)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-sub.Events:
			if ev.Type != EventDelta || ev.Version != info.Version {
				t.Fatalf("got %+v, want delta at version %d", ev, info.Version)
			}
			if err := view.apply(ev); err != nil {
				t.Fatal(err)
			}
			if want := loadView(t, s, "tc", "S", ev.Version); !sameView(view["S"], want) {
				t.Fatalf("after version %d: delta-built view %v, fresh query %v", ev.Version, view["S"], want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no delta event for version %d", info.Version)
		}
	}

	// A commit that cannot change the view (re-inserting an existing
	// edge) must not produce an event; the next real change must.
	if _, err := s.Commit([]datalog.Fact{edge(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	info, err := s.Commit([]datalog.Fact{edge(3, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events:
		if ev.Version != info.Version {
			t.Fatalf("expected the no-op commit to be skipped; got event at version %d, want %d", ev.Version, info.Version)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delta event after a real change")
	}
}

// TestSubscribeGoalFilter: a bound-goal subscription receives exactly the
// deltas inside the goal slice, and the reconstructed slice matches a
// bound query at the same version.
func TestSubscribeGoalFilter(t *testing.T) {
	s := newSubService(t, Config{})
	if _, err := s.Register("tc", subTCProgram); err != nil {
		t.Fatal(err)
	}
	goal := datalog.NewGoal("S", 2, map[int]int{0: 0})
	sub, err := s.Subscribe(SubscribeRequest{Program: "tc", Goal: &goal, FromVersion: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	hello := <-sub.Events
	slice := map[string]bool{}

	commits := [][]datalog.Fact{
		{edge(0, 1), edge(1, 2)},
		{edge(5, 6)}, // outside the slice: no event
		{edge(2, 3)},
	}
	var lastVersion int64 = hello.Version
	for i, ins := range commits {
		info, err := s.Commit(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			continue // S(5,6) does not match S(0,_): expect silence
		}
		select {
		case ev := <-sub.Events:
			if ev.Version != info.Version {
				t.Fatalf("commit %d: event at version %d, want %d", i, ev.Version, info.Version)
			}
			for _, pd := range ev.Deltas {
				if pd.Pred != "S" {
					t.Fatalf("unexpected predicate %q in goal-filtered event", pd.Pred)
				}
				for _, tp := range pd.Adds {
					if tp[0] != 0 {
						t.Fatalf("delta %v escapes the S(0,_) slice", tp)
					}
					slice[datalog.Tuple(tp).String()] = true
				}
				for _, tp := range pd.Removes {
					delete(slice, datalog.Tuple(tp).String())
				}
			}
			lastVersion = ev.Version
		case <-time.After(5 * time.Second):
			t.Fatalf("no event for commit %d", i)
		}
	}

	zero := 0
	res, err := s.Query(QueryRequest{Program: "tc", Pred: "S", Version: lastVersion, Bind: []*int{&zero, nil}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, tp := range res.Tuples {
		want[tp.String()] = true
	}
	if !sameView(slice, want) {
		t.Fatalf("delta-built slice %v, bound query %v", slice, want)
	}
}

// TestSubscribeResume: a subscriber resuming from an old version replays
// the missed deltas; resuming below the history window gaps immediately.
func TestSubscribeResume(t *testing.T) {
	s := newSubService(t, Config{SubscribeHistory: 4})
	if _, err := s.Register("tc", subTCProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit([]datalog.Fact{edge(0, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	resumeFrom := s.Store().Version()
	view := subView{"S": loadView(t, s, "tc", "S", resumeFrom)}
	for i := 1; i <= 3; i++ {
		if _, err := s.Commit([]datalog.Fact{edge(i, i+1)}, nil); err != nil {
			t.Fatal(err)
		}
	}

	sub, err := s.Subscribe(SubscribeRequest{Program: "tc", FromVersion: resumeFrom})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if ev := <-sub.Events; ev.Type != EventHello {
		t.Fatalf("first event is %q, want hello", ev.Type)
	}
	var last int64
	for i := 0; i < 3; i++ {
		select {
		case ev := <-sub.Events:
			if ev.Type != EventDelta {
				t.Fatalf("replay event %d is %q", i, ev.Type)
			}
			if ev.Version <= last {
				t.Fatalf("replay out of order: %d after %d", ev.Version, last)
			}
			last = ev.Version
			if err := view.apply(ev); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("missing replay event %d", i)
		}
	}
	if want := loadView(t, s, "tc", "S", last); !sameView(view["S"], want) {
		t.Fatalf("replayed view %v, fresh query %v", view["S"], want)
	}

	// Push the early versions out of the 4-commit window, then resume
	// from the now-evicted version: immediate, documented gap.
	for i := 4; i <= 9; i++ {
		if _, err := s.Commit([]datalog.Fact{edge(i, i+1)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := s.Subscribe(SubscribeRequest{Program: "tc", FromVersion: resumeFrom})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	for range stale.Events {
	}
	gap, gapped := stale.Gap()
	if !gapped || gap.Reason != "history window exceeded" {
		t.Fatalf("stale resume: gap=%v event=%+v, want history-window gap", gapped, gap)
	}
	if gap.Resume != s.Store().Version() {
		t.Fatalf("gap resume version %d, want current %d", gap.Resume, s.Store().Version())
	}

	// Resuming from a version the service has never seen is an error,
	// not a stream.
	if _, err := s.Subscribe(SubscribeRequest{Program: "tc", FromVersion: s.Store().Version() + 10}); err == nil {
		t.Fatal("resume from a future version should fail")
	}
}

// TestSubscribeBackpressure: a subscriber that stops reading is dropped
// with a slow-consumer gap instead of stalling commits.
func TestSubscribeBackpressure(t *testing.T) {
	s := newSubService(t, Config{})
	if _, err := s.Register("tc", subTCProgram); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe(SubscribeRequest{Program: "tc", FromVersion: -1, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Never read past the buffered hello: the first delta fills the
	// 1-slot buffer, the second overflows it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			if _, err := s.Commit([]datalog.Fact{edge(i, i+1)}, nil); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("commits stalled behind an unread subscriber")
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Events:
			if ok {
				continue // drain the buffered prefix
			}
			gap, gapped := sub.Gap()
			if !gapped || gap.Reason != "slow consumer" {
				t.Fatalf("gap=%v event=%+v, want slow-consumer gap", gapped, gap)
			}
			if s.Stats().Subscribe.Dropped == 0 {
				t.Fatal("dropped counter not incremented")
			}
			return
		case <-deadline:
			t.Fatal("overflowed subscriber's channel never closed")
		}
	}
}

// TestSubscribeValidation: bad programs, predicates and goals are
// rejected at subscribe time.
func TestSubscribeValidation(t *testing.T) {
	s := newSubService(t, Config{})
	if _, err := s.Register("tc", subTCProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(SubscribeRequest{Program: "nope", FromVersion: -1}); err == nil {
		t.Fatal("unknown program accepted")
	}
	if _, err := s.Subscribe(SubscribeRequest{Program: "tc", Preds: []string{"E"}, FromVersion: -1}); err == nil {
		t.Fatal("EDB predicate accepted as a subscription target")
	}
	g := datalog.NewGoal("E", 2, map[int]int{0: 0})
	if _, err := s.Subscribe(SubscribeRequest{Program: "tc", Goal: &g, FromVersion: -1}); err == nil {
		t.Fatal("EDB goal accepted")
	}
	bad := datalog.NewGoal("S", 3, map[int]int{0: 0})
	if _, err := s.Subscribe(SubscribeRequest{Program: "tc", Goal: &bad, FromVersion: -1}); err == nil {
		t.Fatal("arity-mismatched goal accepted")
	}
}

// TestSubscribeChaos is the acceptance check: subscribers connect,
// disconnect and resume while a writer hammers commits; every surviving
// subscriber's delta-reconstructed view must be identical to a fresh
// snapshot query at its last received version.
func TestSubscribeChaos(t *testing.T) {
	// The history window is generous so a subscriber verifying its view
	// a beat behind the writer still finds its version retained.
	s := newSubService(t, Config{Universe: 12, History: 4096, SubscribeHistory: 4096})
	if _, err := s.Register("tc", subTCProgram); err != nil {
		t.Fatal(err)
	}

	const subscribers = 20
	var wg sync.WaitGroup
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})

	// Writer: random edge inserts/deletes until every subscriber is
	// done, every commit a potential delta storm through the transitive
	// closure. Throttled so subscribers never fall a full history window
	// behind.
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(20260808))
		var edges []datalog.Fact
		for i := 0; ; i++ {
			select {
			case <-stopWriter:
				return
			case <-time.After(time.Millisecond):
			}
			var ins, del []datalog.Fact
			if rng.Intn(3) > 0 || len(edges) == 0 {
				e := edge(rng.Intn(12), rng.Intn(12))
				ins = append(ins, e)
				edges = append(edges, e)
			} else {
				j := rng.Intn(len(edges))
				del = append(del, edges[j])
				edges = append(edges[:j], edges[j+1:]...)
			}
			if _, err := s.Commit(ins, del); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	}()

	type outcome struct {
		id       int
		events   int
		verified bool
	}
	results := make(chan outcome, subscribers)
	for id := 0; id < subscribers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			// Half the subscribers exercise resume-from-version on each
			// reconnect; the rest start fresh every time.
			useResume := id%2 == 0
			resumeFrom := int64(-1)
			var view subView
			o := outcome{id: id}
			for round := 0; round < 3; round++ {
				sub, err := s.Subscribe(SubscribeRequest{
					Program: "tc", FromVersion: resumeFrom, Buffer: 1024,
				})
				if err != nil {
					t.Errorf("sub %d round %d: %v", id, round, err)
					results <- o
					return
				}
				hello, ok := <-sub.Events
				if !ok || hello.Type != EventHello {
					t.Errorf("sub %d round %d: bad hello %+v", id, round, hello)
					sub.Close()
					results <- o
					return
				}
				if resumeFrom < 0 {
					// Fresh start: snapshot at the hello version.
					view = subView{"S": loadView(t, s, "tc", "S", hello.Version)}
				}
				last := hello.Version
				budget := 5 + rng.Intn(25) // events to consume this round
			consume:
				for n := 0; n < budget; n++ {
					var ev SubEvent
					var ok bool
					select {
					case ev, ok = <-sub.Events:
					case <-time.After(30 * time.Second):
						t.Errorf("sub %d round %d: no event while the writer is live", id, round)
						break consume
					}
					if !ok {
						if gap, gapped := sub.Gap(); gapped {
							t.Errorf("sub %d round %d: unexpected gap %+v", id, round, gap)
						}
						break // clean close (service shutdown)
					}
					if ev.Version <= last {
						t.Errorf("sub %d: version went backwards (%d after %d)", id, ev.Version, last)
						break
					}
					last = ev.Version
					if err := view.apply(ev); err != nil {
						t.Errorf("sub %d: %v", id, err)
						break
					}
					o.events++
				}
				sub.Close()
				// The acceptance bar: the replayed view is byte-identical
				// to a fresh snapshot query at the last received version.
				if want := loadView(t, s, "tc", "S", last); !sameView(view["S"], want) {
					t.Errorf("sub %d round %d: view diverged at version %d: built %d tuples, snapshot %d",
						id, round, last, len(view["S"]), len(want))
					results <- o
					return
				}
				o.verified = true
				if useResume {
					resumeFrom = last // keep the view, replay what we missed
					// Stay disconnected while the writer commits, so the
					// next round actually replays from history.
					time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
				} else {
					resumeFrom = -1
				}
			}
			results <- o
		}(id)
	}

	wg.Wait()
	close(stopWriter)
	<-writerDone
	close(results)
	verified := 0
	for o := range results {
		if o.verified {
			verified++
		}
	}
	if verified != subscribers {
		t.Fatalf("only %d/%d subscribers verified their views", verified, subscribers)
	}
	st := s.Stats()
	if st.Subscribe.Events == 0 {
		t.Fatal("no subscription events delivered during chaos")
	}
	t.Logf("chaos: %d events delivered, %d replayed, %d dropped, peak queue %d",
		st.Subscribe.Events, st.Subscribe.Replayed, st.Subscribe.Dropped, st.Subscribe.PeakQueue)
}

// TestSubscribeHTTP drives the SSE endpoint end to end: hello and delta
// frames arrive with event/id/data lines, and a disconnect unsubscribes.
func TestSubscribeHTTP(t *testing.T) {
	s := newSubService(t, Config{})
	if _, err := s.Register("tc", subTCProgram); err != nil {
		t.Fatal(err)
	}
	// Serve through the logging middleware: its response recorder must
	// forward Flush or SSE frames never leave the server.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := httptest.NewServer(LogRequests(logger, s.Handler()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/subscribe?program=tc&goal=S(0,_)&from=-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	reader := bufio.NewReader(resp.Body)
	readFrame := func() (string, SubEvent) {
		t.Helper()
		var evType string
		var ev SubEvent
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				t.Fatalf("reading SSE frame: %v", err)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				evType = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					t.Fatalf("bad data line %q: %v", line, err)
				}
			case line == "":
				return evType, ev
			}
		}
	}

	evType, hello := readFrame()
	if evType != EventHello || hello.Type != EventHello {
		t.Fatalf("first frame %q %+v, want hello", evType, hello)
	}
	info, err := s.Commit([]datalog.Fact{edge(0, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	evType, delta := readFrame()
	if evType != EventDelta || delta.Version != info.Version {
		t.Fatalf("delta frame %q %+v, want version %d", evType, delta, info.Version)
	}
	if len(delta.Deltas) != 1 || delta.Deltas[0].Pred != "S" {
		t.Fatalf("delta payload %+v", delta.Deltas)
	}

	// Out-of-slice commits are filtered server-side.
	if _, err := s.Commit([]datalog.Fact{edge(5, 6)}, nil); err != nil {
		t.Fatal(err)
	}
	info, err = s.Commit([]datalog.Fact{edge(1, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, delta = readFrame()
	if delta.Version != info.Version {
		t.Fatalf("expected filtered commit to be skipped; frame at %d, want %d", delta.Version, info.Version)
	}

	// Disconnect: the handler must unsubscribe promptly.
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Subscribe.Active != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber still registered after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Bad requests come back as structured errors, not streams.
	for _, url := range []string{
		srv.URL + "/v1/subscribe?program=nope",
		srv.URL + "/v1/subscribe?program=tc&goal=)(",
		srv.URL + "/v1/subscribe?program=tc&from=abc",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", url, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
