package main

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/service"
)

// The harness's own tests: what a seed decides, what a percentile needs,
// what the oracle catches, and that the names the harness emits are the
// names BENCHMARK.json declares. They run against an in-process server over
// a tiny universe, in well under five seconds: `go test -C benchmark`.

var tiny = sizing{Universe: 64, Edges: 50}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := newGenerator(7, tiny, w, 2*time.Second).bytes(500)
		b := newGenerator(7, tiny, w, 2*time.Second).bytes(500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different schedule", w.Name)
		}
		if c := newGenerator(8, tiny, w, 2*time.Second).bytes(500); bytes.Equal(a, c) {
			t.Errorf("%s: different seed, same schedule", w.Name)
		}
	}
}

func TestMixIsExactPerBlock(t *testing.T) {
	g := newGenerator(3, tiny, workloadNamed("mixed"), time.Second)
	for block := 0; block < 50; block++ {
		count := map[opKind]int{}
		for i := 0; i < 10; i++ {
			count[g.op(phaseOpen, block*10+i).Kind]++
		}
		if count[opPage] != 8 || count[opCommit] != 1 || count[opGoalTC] != 1 {
			t.Fatalf("block %d of mixed is %v, want 8:1:1", block, count)
		}
	}
}

func TestQuantileRefusesThinTails(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.50, false}, {20, 0.50, true},
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if _, err := quantile(samples(c.n), c.q); (err == nil) != c.ok {
			t.Errorf("quantile(%d samples, %g): err %v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
	if v, _ := quantile(samples(201), 0.5); v != 100 {
		t.Errorf("median of 0..200 = %g, want 100", v)
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,12], n=4) == [2.75, 5.5, 8.25]
	got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 12})
	if want := (8.25 - 2.75) / 5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestOracleCatchesCorruptedAnswers(t *testing.T) {
	m := newMirror(8)
	for _, e := range []edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {5, 6}} {
		m.insert(e)
	}
	ref := m.closure(4)
	// 0,1,2 lie on a cycle and reach 3; 5 reaches 6.
	if len(ref.tc) != 3*4+1 || len(ref.hop2) != 4 {
		t.Fatalf("closure: %d tc tuples, %d hop2 tuples, want 13 and 4", len(ref.tc), len(ref.hop2))
	}
	page := func() *service.QueryResponse {
		resp := &service.QueryResponse{Pred: "S", Version: 4, Count: len(ref.tc)}
		for _, tu := range ref.tc {
			resp.Tuples = append(resp.Tuples, []int{tu[0], tu[1]})
		}
		return resp
	}
	if err := ref.checkPage("tc", nil, page()); err != nil {
		t.Fatalf("correct page refused: %v", err)
	}
	corruptions := map[string]func(*service.QueryResponse){
		"one component changed": func(r *service.QueryResponse) { r.Tuples[5][1] = 7 },
		"a tuple dropped":       func(r *service.QueryResponse) { r.Tuples = r.Tuples[1:]; r.Count-- },
		"two tuples swapped":    func(r *service.QueryResponse) { r.Tuples[0], r.Tuples[1] = r.Tuples[1], r.Tuples[0] },
		"a stale version":       func(r *service.QueryResponse) { r.Version = 3 },
		"a cursor on the last":  func(r *service.QueryResponse) { r.NextCursor = "5,6" },
		"a wrong count":         func(r *service.QueryResponse) { r.Count++ },
	}
	for name, corrupt := range corruptions {
		resp := page()
		corrupt(resp)
		if err := ref.checkPage("tc", nil, resp); err == nil {
			t.Errorf("page with %s was accepted", name)
		}
	}

	goal := &service.QueryResponse{Version: 4, Tuples: [][]int{{5, 6}}}
	if err := ref.checkGoal("tc", 5, goal); err != nil {
		t.Errorf("correct goal refused: %v", err)
	}
	goal.Tuples = append(goal.Tuples, []int{5, 7})
	if err := ref.checkGoal("tc", 5, goal); err == nil {
		t.Errorf("goal with an extra answer was accepted")
	}

	// J(1,_) = {0, 3}: in either order, but only those, once each.
	ok := service.StreamTrailerJSON{Count: 2}
	if err := ref.checkStream("hop2", 1, [][]int{{1, 3}, {1, 0}}, &ok); err != nil {
		t.Errorf("correct stream refused: %v", err)
	}
	if err := ref.checkStream("hop2", 1, [][]int{{1, 3}, {1, 2}}, &ok); err == nil {
		t.Errorf("stream with a row outside the answer was accepted")
	}
	if err := ref.checkStream("hop2", 1, [][]int{{1, 3}, {1, 3}}, &ok); err == nil {
		t.Errorf("stream with a repeated row was accepted")
	}
	if err := ref.checkStream("hop2", 1, [][]int{{1, 3}}, &service.StreamTrailerJSON{Count: 1}); err == nil {
		t.Errorf("stream missing a row was accepted")
	}

	if err := checkCommit(&service.CommitResponse{Version: 5, Inserted: 4, Deleted: 4}, 5, 4, 4); err != nil {
		t.Errorf("correct commit refused: %v", err)
	}
	if err := checkCommit(&service.CommitResponse{Version: 6, Inserted: 4, Deleted: 4}, 5, 4, 4); err == nil {
		t.Errorf("commit with a skipped version was accepted")
	}
}

// inProcess starts a service over dir/data behind an httptest server: what
// startServer does with a cmd/serve process.
func inProcess(dir string, universe int) (*server, error) {
	started := time.Now()
	svc, err := service.New(service.Config{Universe: universe, DataDir: filepath.Join(dir, "data"), Fsync: "always"})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(svc.Handler())
	return &server{
		base: ts.URL, dir: dir, started: started,
		kill: func() {
			ts.CloseClientConnections()
			ts.Close()
			svc.Close()
		},
		usage: func() (time.Duration, float64, error) { return 0, 0, nil },
	}, nil
}

func TestEmittedNamesAreTheDeclaredNames(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			if !name.MatchString(d.Name) {
				t.Errorf("declared metric name %q is not a valid name", d.Name)
			}
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	keys := func(m metrics) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	perLayer := map[string]metricDef{}
	for _, d := range sp.PerLayer {
		perLayer[d.Name] = d
	}
	for _, d := range timed {
		if got := perLayer[d.Name]; got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("timing metric %s is %+v in BENCHMARK.json's per_layer, want unit %s, better %s", d.Name, got, d.Unit, d.Better)
		}
	}

	var declared, have []string
	for _, w := range sp.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("declared workload name %q is not a valid name", w.Name)
		}
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	if !slices.Equal(declared, have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the harness runs %v", declared, have)
	}

	e := &env{start: inProcess, size: tiny, tmp: t.TempDir(), traces: map[string][]span{}}
	for _, w := range workloads {
		// Too short to be a valid measurement; long enough to touch every
		// code path that emits a metric.
		res, err := e.runWorkload(w, options{seed: 1, seconds: 0.5, setups: 1, trace: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, res.Failed, res.Attempted, res.Errors)
		}
		if got, want := keys(res.EndToEnd), names(sp.EndToEnd); !slices.Equal(got, want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", w.Name, got, want)
		}
		if got, want := keys(res.PerLayer), names(sp.PerLayer); !slices.Equal(got, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json declares %v", w.Name, got, want)
		}
		if len(e.traces[w.Name]) == 0 {
			t.Errorf("%s: the traced run recorded no spans", w.Name)
		}
	}
}
