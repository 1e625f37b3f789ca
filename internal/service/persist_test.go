package service

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datalog"
	"repro/internal/storage"
)

// The persistence suite exercises the service-level durability contract:
// Close → New(DataDir) resumes at the last durable version with every
// program re-registered and its maintained view re-derived through the
// ordinary incremental maintenance path, byte-identical to a from-scratch
// evaluation. Crash shapes (kill at an arbitrary WAL offset) recover the
// longest intact commit prefix.

func newDurable(t *testing.T, dir string, universe int) *Service {
	t.Helper()
	s, err := New(Config{Universe: universe, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tuplesEqual compares two result sets up to order (sortedTuples lives
// in plan_test.go).
func tuplesEqual(a, b []datalog.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedTuples(a), sortedTuples(b)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// requireViewMatchesScratch asserts the materialized view of a program
// equals a from-scratch evaluation of its source at the same version.
func requireViewMatchesScratch(t *testing.T, s *Service, name, source string) {
	t.Helper()
	mat, err := s.Query(QueryRequest{Program: name, Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if mat.Origin != "materialized" {
		t.Fatalf("current-version query origin %q, want materialized", mat.Origin)
	}
	scratch, err := s.Query(QueryRequest{Source: source, Version: mat.Version})
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(mat.Tuples, scratch.Tuples) {
		t.Fatalf("recovered view (%d tuples) differs from from-scratch evaluation (%d tuples) at version %d",
			len(mat.Tuples), len(scratch.Tuples), mat.Version)
	}
	if err := publishedMatchesViews(s); err != nil {
		t.Fatal(err)
	}
}

func TestRestartPreservesStateAndViews(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, dir, 16)
	if _, err := s.Register("tc", tcSource); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Commit([]datalog.Fact{edge(i, i+1)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A deletion exercises delete-and-rederive during replay too.
	if _, err := s.Commit([]datalog.Fact{edge(9, 10)}, []datalog.Fact{edge(2, 3)}); err != nil {
		t.Fatal(err)
	}
	want, err := s.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newDurable(t, dir, 16)
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.Enabled || rec.Version != 7 || rec.ReplayedCommits != 7 || rec.Programs != 1 {
		t.Fatalf("recovery info %+v, want version 7, 7 replayed commits, 1 program", rec)
	}
	if got := s2.Store().Version(); got != 7 {
		t.Fatalf("store version after restart %d, want 7", got)
	}
	res, err := s2.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Served from the views recovery re-derived and published.
	if res.Origin != "materialized" {
		t.Fatalf("first post-restart query origin %q, want materialized", res.Origin)
	}
	if !tuplesEqual(res.Tuples, want.Tuples) {
		t.Fatalf("recovered view has %d tuples, pre-restart view had %d", len(res.Tuples), len(want.Tuples))
	}
	requireViewMatchesScratch(t, s2, "tc", tcSource)

	// The service is live: commits and maintenance continue past recovery.
	if _, err := s2.Commit([]datalog.Fact{edge(10, 11)}, nil); err != nil {
		t.Fatal(err)
	}
	if got := s2.Store().Version(); got != 8 {
		t.Fatalf("post-restart commit produced version %d, want 8", got)
	}
	requireViewMatchesScratch(t, s2, "tc", tcSource)
}

func TestRestartDropsUnregisteredPrograms(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, dir, 8)
	if _, err := s.Register("tc", tcSource); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("gone", tcSource); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Unregister("gone"); err != nil || !ok {
		t.Fatalf("unregister: %v %v", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newDurable(t, dir, 8)
	defer s2.Close()
	if s2.Recovery().Programs != 1 {
		t.Fatalf("recovered %d programs, want 1", s2.Recovery().Programs)
	}
	if _, err := s2.Query(QueryRequest{Program: "gone"}); err == nil {
		t.Fatal("unregistered program survived the restart")
	}
	if _, err := s2.Query(QueryRequest{Program: "tc"}); err != nil {
		t.Fatalf("registered program lost: %v", err)
	}
}

// A logged registration whose program names a constant outside the
// universe — written before registration refused such programs — is
// dropped on recovery with a warning, as if it had been refused: recovery
// goes on, a replacement under a registered name leaves the name's earlier
// program in place, and the programs and commits around it are intact.
func TestRecoveryDropsProgramWithConstantOutsideUniverse(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, dir, 8)
	if _, err := s.Register("tc", tcSource); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wide", "tc"} {
		if _, err := log.AppendRegister(name, "S(x,9) :- E(x,y). goal S."); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newDurable(t, dir, 8)
	defer s2.Close()
	if rec := s2.Recovery(); rec.Programs != 1 || rec.Version != 1 {
		t.Fatalf("recovered %d programs at version %d, want 1 at 1", rec.Programs, rec.Version)
	}
	if _, err := s2.Query(QueryRequest{Program: "wide"}); err == nil {
		t.Fatal("a program with a constant outside the universe was recovered")
	}
	requireViewMatchesScratch(t, s2, "tc", tcSource)
	if _, err := s2.Commit([]datalog.Fact{edge(2, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	requireViewMatchesScratch(t, s2, "tc", tcSource)
}

func TestCheckpointBoundsReplayAndHistoryWindow(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Universe: 16, DataDir: dir, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("tc", tcSource); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Commit([]datalog.Fact{edge(i, i+1)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Universe: 16, DataDir: dir, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.CheckpointVersion != 8 {
		t.Fatalf("replay started from checkpoint version %d, want 8", rec.CheckpointVersion)
	}
	if rec.Version != 10 || rec.ReplayedCommits != 2 {
		t.Fatalf("recovery %+v: want version 10 with 2 replayed commits", rec)
	}
	requireViewMatchesScratch(t, s2, "tc", tcSource)
	// The queryable history window restarts at the checkpoint: versions
	// before it have no snapshots to serve.
	if got := s2.Store().Oldest(); got != 8 {
		t.Fatalf("oldest retained version %d, want 8 (the checkpoint)", got)
	}
	if _, err := s2.Query(QueryRequest{Program: "tc", Version: 7}); err == nil {
		t.Fatal("query at a pre-checkpoint version succeeded after restart")
	}
	if res, err := s2.Query(QueryRequest{Program: "tc", Version: 9}); err != nil || len(res.Tuples) == 0 {
		t.Fatalf("query at replayed version 9: %v (%d tuples)", err, len(res.Tuples))
	}
}

// TestKillAtRandomOffsets truncates the WAL at arbitrary byte offsets —
// the on-disk state a kill -9 mid-write leaves behind — and checks the
// service recovers a consistent prefix: some version v of the commit
// sequence, with the maintained view matching a from-scratch evaluation
// at v.
func TestKillAtRandomOffsets(t *testing.T) {
	src := t.TempDir()
	s := newDurable(t, src, 16)
	if _, err := s.Register("tc", tcSource); err != nil {
		t.Fatal(err)
	}
	const commits = 8
	for i := 0; i < commits; i++ {
		if _, err := s.Commit([]datalog.Fact{edge(i, i+1)}, []datalog.Fact{edge((i+5)%9, (i+6)%9)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(src, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(segs[0])

	// A spread of cut points across the file, including mid-record cuts.
	offsets := []int{0, 1, 15, 16, 17, len(data) / 4, len(data) / 3, len(data) / 2,
		2 * len(data) / 3, len(data) - 9, len(data) - 2, len(data) - 1}
	for _, off := range offsets {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := newDurable(t, dir, 16)
		rec := s2.Recovery()
		v := s2.Store().Version()
		if v != rec.Version || v < 0 || v > commits {
			t.Fatalf("cut at %d: recovered version %d (info %+v)", off, v, rec)
		}
		// The register record precedes every commit in the log: if any
		// commit survived, the program must have too.
		if v > 0 {
			if rec.Programs != 1 {
				t.Fatalf("cut at %d: version %d recovered but %d programs", off, v, rec.Programs)
			}
			requireViewMatchesScratch(t, s2, "tc", tcSource)
		}
		// Recovered services accept new commits.
		if _, err := s2.Commit([]datalog.Fact{edge(14, 15)}, nil); err != nil {
			t.Fatalf("cut at %d: commit after recovery: %v", off, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", off, err)
		}
	}
}

func TestUniverseMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Universe: 16, DataDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	// CheckpointEvery 1: the first commit writes a checkpoint, which pins
	// the universe in the directory.
	if _, err := s.Commit([]datalog.Fact{edge(0, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Universe: 8, DataDir: dir}); err == nil {
		t.Fatal("reopening with a different universe succeeded")
	}
	// The right universe still works.
	s2, err := New(Config{Universe: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIsIdempotentAndFinal(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, dir, 8)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Commit([]datalog.Fact{edge(0, 1)}, nil); err == nil {
		t.Fatal("commit after Close succeeded")
	}
}

func TestMemoryOnlyServiceHasNoStorage(t *testing.T) {
	s, err := New(Config{Universe: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := s.Recovery(); rec.Enabled {
		t.Fatalf("memory-only service reports storage: %+v", rec)
	}
	if st := s.Stats(); st.Storage.Enabled {
		t.Fatal("memory-only Stats reports storage enabled")
	}
}
