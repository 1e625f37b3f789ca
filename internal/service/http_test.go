package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/datalog"
)

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewBufferString(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHTTPRoundTrip(t *testing.T) {
	s, err := New(Config{Universe: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	if w := post(t, h, "/v1/register", `{"name":"tc","program":"S(x,y) :- E(x,y). S(x,y) :- E(x,z), S(z,y). goal S."}`); w.Code != http.StatusOK {
		t.Fatalf("/v1/register: %d %s", w.Code, w.Body)
	}
	w := post(t, h, "/v1/commit", `{"insert":[{"pred":"E","tuple":[0,1]},{"pred":"E","tuple":[1,2]}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/commit: %d %s", w.Code, w.Body)
	}
	var commit CommitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &commit); err != nil {
		t.Fatal(err)
	}
	if commit.Version != 1 || commit.Inserted != 2 {
		t.Fatalf("commit response %+v", commit)
	}

	w = post(t, h, "/v1/query", `{"program":"tc"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/query: %d %s", w.Code, w.Body)
	}
	var q QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Count != 3 || q.Pred != "S" || q.Version != 1 {
		t.Fatalf("query response %+v", q)
	}

	// Membership form.
	w = post(t, h, "/v1/query", `{"program":"tc","tuple":[0,2]}`)
	var m QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Has == nil || !*m.Has || m.Tuples != nil {
		t.Fatalf("membership response %+v", m)
	}

	// Delete the bridging edge; the closure shrinks.
	if w := post(t, h, "/v1/commit", `{"delete":[{"pred":"E","tuple":[1,2]}]}`); w.Code != http.StatusOK {
		t.Fatalf("/commit delete: %d %s", w.Code, w.Body)
	}
	w = post(t, h, "/v1/query", `{"program":"tc"}`)
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Count != 1 || q.Version != 2 {
		t.Fatalf("query after delete %+v", q)
	}

	// Stats is GET-only and reflects the traffic.
	get := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	sw := httptest.NewRecorder()
	h.ServeHTTP(sw, get)
	if sw.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d", sw.Code)
	}
	var st Stats
	if err := json.Unmarshal(sw.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Commits != 2 || st.Version != 2 || len(st.Programs) != 1 {
		t.Fatalf("stats %+v", st)
	}
	if sw := post(t, h, "/v1/stats", ""); sw.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats: %d", sw.Code)
	}
}

func TestHTTPErrors(t *testing.T) {
	s, err := New(Config{Universe: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	cases := []struct {
		name, path, body string
	}{
		{"query bad json", "/v1/query", `{"program":`},
		{"query unknown field", "/v1/query", `{"programme":"tc"}`},
		{"query no program", "/v1/query", `{}`},
		{"query unknown program", "/v1/query", `{"program":"nope"}`},
		{"query bad source", "/v1/query", `{"source":"S(x :- E."}`},
		// A cursor or membership tuple needs one component per argument of
		// the binary S: a short cursor would restart the walk at (0,0).
		{"query short cursor", "/v1/query", `{"source":"S(x,y) :- E(x,y). goal S.","limit":3,"cursor":"0"}`},
		{"query long cursor", "/v1/query", `{"source":"S(x,y) :- E(x,y). goal S.","cursor":"0,0,0"}`},
		{"ndjson short cursor", "/v1/query", `{"source":"S(x,y) :- E(x,y). goal S.","cursor":"0","stream":true}`},
		{"query short tuple", "/v1/query", `{"source":"S(x,y) :- E(x,y). goal S.","tuple":[0]}`},
		{"query long tuple", "/v1/query", `{"source":"S(x,y) :- E(x,y). goal S.","tuple":[0,1,2]}`},
		{"commit bad json", "/v1/commit", `{"insert":"E"}`},
		{"commit empty pred", "/v1/commit", `{"insert":[{"pred":"","tuple":[0]}]}`},
		{"commit no tuple", "/v1/commit", `{"insert":[{"pred":"E"}]}`},
		{"commit out of range", "/v1/commit", `{"insert":[{"pred":"E","tuple":[0,9]}]}`},
		{"commit trailing data", "/v1/commit", `{} {}`},
		{"register bad program", "/v1/register", `{"name":"x","program":"S("}`},
		{"register no name", "/v1/register", `{"program":"S(x) :- E(x)."}`},
		// A program constant must name an element of the universe (size 4
		// here), in a head, a body atom or a constraint alike.
		{"register head constant outside the universe", "/v1/register", `{"name":"p","program":"P(x,7) :- E(x,y). goal P."}`},
		{"register body constant outside the universe", "/v1/register", `{"name":"p","program":"P(x) :- E(x,4). goal P."}`},
		{"register constraint constant outside the universe", "/v1/register", `{"name":"p","program":"P(x) :- E(x,y), y != 5. goal P."}`},
		{"query constant outside the universe", "/v1/query", `{"source":"Q(x,9) :- E(x,y). goal Q."}`},
		{"ndjson constant outside the universe", "/v1/query", `{"source":"Q(x,9) :- E(x,y). goal Q.","stream":true}`},
	}
	for _, tc := range cases {
		w := post(t, h, tc.path, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body)
		}
		if strings.Contains(tc.name, "constant") && !regexp.MustCompile(`constant (7|4|5|9) in rule`).MatchString(w.Body.String()) {
			t.Errorf("%s: the error does not name the constant: %s", tc.name, w.Body)
		}
	}
	if w := httptest.NewRecorder(); true {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/query", nil))
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET /query: %d", w.Code)
		}
	}
}

// TestHTTPMembershipOnLargeView asks for membership in a view of 1,770
// tuples — the closure of a 60-node chain — where the answer is found by
// binary search over the canonical order: the first tuple, the last, ones
// in between and absent ones on both sides of every present one; a tuple
// of the wrong arity is a 400.
func TestHTTPMembershipOnLargeView(t *testing.T) {
	const n = 60
	s := newTC(t, n)
	defer s.Close()
	var chain []datalog.Fact
	for i := 0; i+1 < n; i++ {
		chain = append(chain, edge(i, i+1))
	}
	if _, err := s.Commit(chain, nil); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	has := func(tuple string) bool {
		t.Helper()
		w := post(t, h, "/v1/query", `{"program":"tc","tuple":`+tuple+`}`)
		var m QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil || w.Code != http.StatusOK {
			t.Fatalf("membership of %s: %d %s", tuple, w.Code, w.Body)
		}
		if m.Has == nil || m.Tuples != nil || m.Count != n*(n-1)/2 {
			t.Fatalf("membership of %s: response %+v", tuple, m)
		}
		return *m.Has
	}
	for _, c := range []struct {
		tuple string
		want  bool
	}{
		{"[0,1]", true},    // first in the canonical order
		{"[58,59]", true},  // last
		{"[0,59]", true},   // end of the first run
		{"[31,47]", true},  // somewhere inside
		{"[0,0]", false},   // before everything
		{"[59,0]", false},  // after everything
		{"[31,31]", false}, // between two present tuples
		{"[31,30]", false}, // S is the chain's forward closure only
	} {
		if got := has(c.tuple); got != c.want {
			t.Errorf("membership of %s = %v, want %v", c.tuple, got, c.want)
		}
	}
	for _, tuple := range []string{"[0]", "[0,1,2]", "[58,59,0]"} {
		if w := post(t, h, "/v1/query", `{"program":"tc","tuple":`+tuple+`}`); w.Code != http.StatusBadRequest {
			t.Errorf("membership of %s: %d %s, want 400", tuple, w.Code, w.Body)
		}
	}
}
