package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/datalog"
	"repro/internal/service"
)

// E41: one page of a published view, read the way a client reads it — a
// POST /v1/query for 256 rows after a cursor, decoded, answered from the
// view, cut and encoded as JSON — in process, through the service's
// handler with no network between. The state is the end-to-end benchmark's:
// 8,192 nodes, 6,500 random edges and the transitive closure registered
// (about 28k rows); the requests walk every page start of the view in a
// shuffled order, as the view-read workload does. Bytes and objects per
// page are the figures to compare across view layouts: the page leaves as
// the wire's rows, and nothing else of it should be built.
func BenchmarkE41_ViewPage(b *testing.B) {
	const universe, edges, limit = 8192, 6500, 256
	s, err := service.New(service.Config{Universe: universe})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(41))
	have := map[[2]int]bool{}
	var facts []datalog.Fact
	for len(facts) < edges {
		e := [2]int{rng.Intn(universe), rng.Intn(universe)}
		if !have[e] {
			have[e] = true
			facts = append(facts, datalog.Fact{Pred: "E", Tuple: datalog.Tuple{e[0], e[1]}})
		}
	}
	if _, err := s.Commit(facts, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Register("tc", "S(x, y) :- E(x, y).\nS(x, y) :- E(x, z), S(z, y).\ngoal S.\n"); err != nil {
		b.Fatal(err)
	}
	view, err := s.Query(service.QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	for i := 0; i < len(view.Tuples); i += limit {
		cursor := ""
		if i > 0 {
			prev := view.Tuples[i-1]
			cursor = fmt.Sprintf(`,"cursor":"%d,%d"`, prev[0], prev[1])
		}
		bodies = append(bodies, []byte(fmt.Sprintf(`{"program":"tc","pred":"S","limit":%d%s}`, limit, cursor)))
	}
	rng.Shuffle(len(bodies), func(i, j int) { bodies[i], bodies[j] = bodies[j], bodies[i] })
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(bodies[i%len(bodies)])))
		if w.Code != http.StatusOK {
			b.Fatalf("page %d: %d %s", i, w.Code, w.Body)
		}
	}
}
