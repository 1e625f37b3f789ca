package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datalog"
)

const tcSource = `
S(x, y) :- E(x, y).
S(x, y) :- E(x, z), S(z, y).
goal S.
`

func edge(a, b int) datalog.Fact { return datalog.Fact{Pred: "E", Tuple: datalog.Tuple{a, b}} }

func newTC(t *testing.T, universe int) *Service {
	t.Helper()
	s, err := New(Config{Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("tc", tcSource); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegisterCommitQuery(t *testing.T) {
	s := newTC(t, 8)
	if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("closure of 0→1→2 has %d tuples, want 3", len(res.Tuples))
	}
	if res.Origin != "materialized" {
		t.Fatalf("first query origin %q, want materialized", res.Origin)
	}
	// Identical query → the published view again, never an evaluation.
	res2, err := s.Query(QueryRequest{Program: "tc", Version: res.Version})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Origin != "materialized" {
		t.Fatalf("repeat query origin %q, want materialized", res2.Origin)
	}
	if st := s.Stats(); st.Evals != 0 {
		t.Fatalf("view reads evaluated %d times", st.Evals)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := newTC(t, 8)
	if _, err := s.Commit([]datalog.Fact{edge(0, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	v1 := s.Store().Version()
	if _, err := s.Commit([]datalog.Fact{edge(1, 2), edge(2, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	// The old version must still answer with the old fixpoint.
	old, err := s.Query(QueryRequest{Program: "tc", Version: v1})
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Tuples) != 1 {
		t.Fatalf("version %d has %d closure tuples, want 1", v1, len(old.Tuples))
	}
	if old.Origin != "eval" {
		t.Fatalf("historical query origin %q, want eval", old.Origin)
	}
	cur, err := s.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Tuples) != 6 {
		t.Fatalf("latest version has %d closure tuples, want 6", len(cur.Tuples))
	}
}

func TestCommitValidation(t *testing.T) {
	s := newTC(t, 4)
	cases := []struct {
		name        string
		insert, del []datalog.Fact
	}{
		{"idb predicate", []datalog.Fact{{Pred: "S", Tuple: datalog.Tuple{0, 1}}}, nil},
		{"arity mismatch", []datalog.Fact{{Pred: "E", Tuple: datalog.Tuple{0, 1, 2}}}, nil},
		{"out of universe", []datalog.Fact{edge(0, 99)}, nil},
		{"bad delete", nil, []datalog.Fact{edge(-1, 0)}},
		{"empty pred", []datalog.Fact{{Pred: "", Tuple: datalog.Tuple{0}}}, nil},
	}
	for _, tc := range cases {
		before := s.Store().Version()
		if _, err := s.Commit(tc.insert, tc.del); err == nil {
			t.Errorf("%s: commit accepted", tc.name)
		}
		if got := s.Store().Version(); got != before {
			t.Errorf("%s: rejected commit advanced version %d → %d", tc.name, before, got)
		}
	}
}

func TestHistoryEviction(t *testing.T) {
	s, err := New(Config{Universe: 8, History: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Commit([]datalog.Fact{edge(i, i+1)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Store().Oldest(); got != 4 {
		t.Fatalf("oldest retained version %d, want 4", got)
	}
	if _, err := s.Query(QueryRequest{Source: tcSource, Version: 1}); err == nil {
		t.Fatal("query at evicted version succeeded")
	}
	if _, err := s.Query(QueryRequest{Source: tcSource, Version: 5}); err != nil {
		t.Fatalf("query at retained version: %v", err)
	}
}

func TestUnregister(t *testing.T) {
	s := newTC(t, 4)
	if ok, err := s.Unregister("tc"); err != nil || !ok {
		t.Fatalf("registered program not found: %v %v", ok, err)
	}
	if ok, err := s.Unregister("tc"); err != nil || ok {
		t.Fatalf("double unregister reported success: %v %v", ok, err)
	}
	if _, err := s.Query(QueryRequest{Program: "tc"}); err == nil {
		t.Fatal("query against unregistered program succeeded")
	}
}

func TestStatsCounters(t *testing.T) {
	s := newTC(t, 8)
	if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // an ad-hoc source evaluates on every read
		if _, err := s.Query(QueryRequest{Source: tcSource, Version: -1}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Commits != 1 || st.Queries != 3 || st.Evals != 3 {
		t.Fatalf("commits=%d queries=%d evals=%d, want 1, 3 and 3", st.Commits, st.Queries, st.Evals)
	}
	if len(st.Programs) != 1 || st.Programs[0].Name != "tc" || st.Programs[0].IDBSizes["S"] != 3 {
		t.Fatalf("program stats %+v", st.Programs)
	}
	if st.Version != 1 || len(st.Snapshots) != 2 {
		t.Fatalf("version=%d snapshots=%d, want 1 and 2", st.Version, len(st.Snapshots))
	}
}

// TestConcurrentQueryCommit hammers the service with concurrent commits,
// materialized queries, historical queries and stats reads; run under
// -race (make verify does) this is the race gate for the service layer.
func TestConcurrentQueryCommit(t *testing.T) {
	s, err := New(Config{Universe: 24, History: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("tc", tcSource); err != nil {
		t.Fatal(err)
	}
	const writers, readers, ops = 2, 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				a, b := (w*ops+i)%23, (w*ops+i+1)%23
				var err error
				if i%3 == 2 {
					_, err = s.Commit(nil, []datalog.Fact{edge(a, b)})
				} else {
					_, err = s.Commit([]datalog.Fact{edge(a, b)}, nil)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				var err error
				switch i % 3 {
				case 0:
					_, err = s.Query(QueryRequest{Program: "tc", Version: -1})
				case 1:
					v := s.Store().Oldest()
					_, err = s.Query(QueryRequest{Program: "tc", Version: v})
					if err != nil && strings.Contains(err.Error(), "not retained") {
						err = nil // v was evicted between the reads; that's the API contract
					}
				default:
					_ = s.Stats()
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d op %d: %w", r, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After the dust settles the materialized view must equal scratch.
	snap := s.Store().Latest()
	p, err := datalog.Parse(tcSource)
	if err != nil {
		t.Fatal(err)
	}
	want, err := datalog.Eval(p, snap.DB, datalog.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Query(QueryRequest{Program: "tc", Version: snap.Version})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != want.IDB["S"].Size() {
		t.Fatalf("materialized S has %d tuples, scratch has %d", len(got.Tuples), want.IDB["S"].Size())
	}
}
