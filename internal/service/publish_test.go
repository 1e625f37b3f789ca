package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/datalog"
)

// publishedMatchesViews is the publish point's invariant, checked from the
// writer's side: what readers are served is exactly the registered
// programs, at the store's version, each view equal — order included — to
// its maintained relation sorted afresh.
func publishedMatchesViews(s *Service) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pub := s.pub.Load()
	if pub.version != s.store.Version() || pub.snap != s.store.Latest() {
		return fmt.Errorf("published version %d, store is at %d", pub.version, s.store.Version())
	}
	if len(pub.progs) != len(s.progs) {
		return fmt.Errorf("%d programs published, %d registered", len(pub.progs), len(s.progs))
	}
	for name, reg := range s.progs {
		pp := pub.progs[name]
		if pp == nil || pp != reg.pub {
			return fmt.Errorf("program %s: the published entry is not the registration's latest", name)
		}
		if pp.stats.Version != pub.version {
			return fmt.Errorf("program %s is published at version %d beside version %d", name, pp.stats.Version, pub.version)
		}
		for pred, rel := range reg.inc.Result().IDB {
			if got, want := fmt.Sprint(pp.views[pred]), fmt.Sprint(rel.Tuples()); got != want {
				return fmt.Errorf("program %s, %s: published %s, maintained relation %s", name, pred, got, want)
			}
			if pp.stats.IDBSizes[pred] != len(pp.views[pred]) {
				return fmt.Errorf("program %s, %s: stats say %d tuples, the view has %d", name, pred, pp.stats.IDBSizes[pred], len(pp.views[pred]))
			}
		}
	}
	return nil
}

// failingView is a view whose insert pass fails after its delete pass ran:
// a maintenance run that stops half way through a commit.
type failingView struct {
	view
	err error
}

func (f failingView) InsertContext(context.Context, ...datalog.Fact) error { return f.err }

// A maintenance failure on one of three programs drops that registration
// and nothing else: the commit stands, the other two are maintained,
// published and framed — wherever in the maintenance order the failure
// fell — and they stay in step on the commits after.
func TestMaintenanceFailureDropsOnlyThatProgram(t *testing.T) {
	sources := map[string]string{"a": tcSource, "b": hop2Source, "c": tcSource}
	for round := 0; round < 8; round++ { // map order moves the failure around
		s, err := New(Config{Universe: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for name, src := range sources {
			if _, err := s.Register(name, src); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2)}, nil); err != nil {
			t.Fatal(err)
		}
		sub, err := s.Subscribe(SubscribeRequest{Program: "c", FromVersion: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		if ev := <-sub.Events; ev.Type != EventHello || ev.Version != 1 {
			t.Fatalf("hello %+v", ev)
		}

		s.mu.Lock()
		s.progs["b"].inc = failingView{view: s.progs["b"].inc, err: errors.New("injected maintenance failure")}
		s.mu.Unlock()
		info, err := s.Commit([]datalog.Fact{edge(2, 3)}, []datalog.Fact{edge(0, 1)})
		if err != nil {
			t.Fatalf("a commit whose maintenance failed for one program must stand: %v", err)
		}
		if info.Version != 2 || fmt.Sprint(info.Dropped) != "[b]" || len(info.Maintained) != 2 {
			t.Fatalf("commit info %+v, want version 2, b dropped, two programs maintained", info)
		}
		if err := publishedMatchesViews(s); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "c"} {
			requireViewMatchesScratch(t, s, name, sources[name])
		}
		if _, err := s.Query(QueryRequest{Program: "b", Version: -1}); err == nil || !strings.Contains(err.Error(), "no program registered") {
			t.Fatalf("the dropped program still answers: %v", err)
		}
		st := s.Stats()
		if st.Version != 2 || len(st.Programs) != 2 {
			t.Fatalf("stats: version %d, %d programs, want 2 and 2", st.Version, len(st.Programs))
		}
		if got := s.met.programsDropped.Value(); got != 1 {
			t.Fatalf("datalog_programs_dropped_total = %d, want 1", got)
		}
		select {
		case ev := <-sub.Events:
			if ev.Type != EventDelta || ev.Version != 2 {
				t.Fatalf("frame after the failed program: %+v", ev)
			}
		case <-time.After(time.Second):
			t.Fatal("no subscribe frame was published for the commit")
		}

		if _, err := s.Commit([]datalog.Fact{edge(3, 4)}, []datalog.Fact{edge(1, 2)}); err != nil {
			t.Fatal(err)
		}
		if err := publishedMatchesViews(s); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "c"} {
			requireViewMatchesScratch(t, s, name, sources[name])
		}
	}
}

// A commit whose WAL append is refused publishes nothing: it errors, and
// every reader at "latest" — page, goal, stream, stats, a new subscriber —
// still sees the previous version and its view.
func TestFailedWALAppendPublishesNothing(t *testing.T) {
	s := newDurable(t, t.TempDir(), 8)
	defer s.Close()
	if _, err := s.Register("tc", tcSource); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	before, err := s.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.log.Close(); err != nil { // from here on the log refuses every append
		t.Fatal(err)
	}
	if _, err := s.Commit([]datalog.Fact{edge(2, 3)}, nil); err == nil || !strings.Contains(err.Error(), "persisting commit") {
		t.Fatalf("commit with a refused append: %v", err)
	}
	// The refused version was forked but never installed: the store has
	// not moved, the version cannot be named, and the two gauges agree.
	if v := s.store.Version(); v != 1 {
		t.Fatalf("store.Version() = %d after the refused append, want 1", v)
	}
	if _, ok := s.store.At(2); ok {
		t.Fatal("the refused version 2 is addressable in the store")
	}
	if _, err := s.Query(QueryRequest{Program: "tc", Version: 2}); err == nil {
		t.Fatal("a query pinned to the refused version 2 was answered")
	}
	var prom strings.Builder
	s.Metrics().WritePrometheus(&prom)
	for _, want := range []string{"\ndatalog_store_version 1\n", "\ndatalog_published_version 1\n"} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("metrics after the refused append lack %q:\n%s", want, prom.String())
		}
	}

	page, err := s.Query(QueryRequest{Program: "tc", Version: -1, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if page.Version != 1 || page.Origin != "materialized" || fmt.Sprint(page.Tuples) != fmt.Sprint(before.Tuples[:2]) {
		t.Fatalf("page after the failed commit: %+v", page)
	}
	zero := 0
	goal, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: []*int{&zero, nil}})
	if err != nil {
		t.Fatal(err)
	}
	if goal.Version != 1 || fmt.Sprint(goal.Tuples) != "[(0,1) (0,2)]" {
		t.Fatalf("goal after the failed commit: %+v", goal)
	}
	qs, err := s.QueryStream(context.Background(), QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Version != 1 || qs.Origin != "materialized" {
		t.Fatalf("stream after the failed commit: version %d origin %s", qs.Version, qs.Origin)
	}
	qs.Close()

	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st Stats
	if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 || len(st.Programs) != 1 || st.Programs[0].Version != 1 || st.Programs[0].IDBSizes["S"] != 3 {
		t.Fatalf("/v1/stats after the failed commit: version %d programs %+v", st.Version, st.Programs)
	}
	sub, err := s.Subscribe(SubscribeRequest{Program: "tc", FromVersion: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if ev := <-sub.Events; ev.Type != EventHello || ev.Version != 1 {
		t.Fatalf("hello after the failed commit: %+v", ev)
	}
	if got := s.met.commitErrors.Value(); got != 1 {
		t.Fatalf("datalog_commit_errors_total = %d, want 1", got)
	}
}

// With the writer lock held — a commit that never finishes — every read
// path still answers: none of them takes s.mu.
func TestReadsNeverTakeServiceLock(t *testing.T) {
	s := newTC(t, 8)
	defer s.Close()
	if _, err := s.Register("hop2", hop2Source); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2), edge(2, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	get := func(path string) error {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
		if rw.Code != http.StatusOK || rw.Body.Len() == 0 {
			return fmt.Errorf("%s: %d %s", path, rw.Code, rw.Body)
		}
		return nil
	}
	zero := 0
	reads := map[string]func() error{
		"page read": func() error {
			first, err := s.Query(QueryRequest{Program: "tc", Version: -1, Limit: 2})
			if err != nil {
				return err
			}
			next, err := s.Query(QueryRequest{Program: "tc", Version: -1, Limit: 2, Cursor: first.NextCursor})
			if err != nil {
				return err
			}
			if first.Origin != "materialized" || len(next.Tuples) != 2 {
				return fmt.Errorf("pages %+v then %+v", first, next)
			}
			return nil
		},
		"tc goal": func() error {
			res, err := s.Query(QueryRequest{Program: "tc", Version: -1, Bind: []*int{&zero, nil}})
			if err == nil && len(res.Tuples) != 3 {
				err = fmt.Errorf("goal answered %v", res.Tuples)
			}
			return err
		},
		"NDJSON stream": func() error {
			for _, body := range []string{`{"program":"tc","stream":true,"limit":2}`, `{"program":"hop2","stream":true,"bind":[0,null]}`} {
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
				if rw.Code != http.StatusOK || !strings.Contains(rw.Body.String(), `"count"`) {
					return fmt.Errorf("%s: %d %s", body, rw.Code, rw.Body)
				}
			}
			return nil
		},
		"subscribe lookup": func() error {
			sub, err := s.Subscribe(SubscribeRequest{Program: "tc", FromVersion: -1})
			if err != nil {
				return err
			}
			sub.Close()
			return nil
		},
		"Stats": func() error {
			if st := s.Stats(); st.Version != 1 || len(st.Programs) != 2 {
				return fmt.Errorf("stats: version %d, %d programs", st.Version, len(st.Programs))
			}
			return nil
		},
		"/v1/stats":                     func() error { return get("/v1/stats") },
		"/v1/metrics":                   func() error { return get("/v1/metrics") },
		"/v1/metrics?format=prometheus": func() error { return get("/v1/metrics?format=prometheus") },
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for name, read := range reads {
		done := make(chan error, 1) // the read's one result, so a late one never blocks
		go func() { done <- read() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(time.Second):
			t.Errorf("%s waited on the service lock", name)
		}
	}
}
