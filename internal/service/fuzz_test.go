package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/datalog"
)

// Fuzz targets for the JSON front end: arbitrary bodies on /query and
// /commit must produce an HTTP response — malformed JSON, unknown fields,
// bad atoms, arity mismatches, unknown predicates and out-of-universe
// elements are all errors, never panics. Run for real with
// `go test -fuzz=FuzzHTTPQuery ./internal/service`; the seeds execute as
// ordinary tests.

// fuzzService builds one service with a registered program and some data,
// so fuzz inputs can reach the deeper validation paths.
func fuzzService(f *testing.F) *Service {
	f.Helper()
	s, err := New(Config{Universe: 6, History: 4})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Register("tc", tcSource); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Commit([]datalog.Fact{
		{Pred: "E", Tuple: datalog.Tuple{0, 1}},
		{Pred: "E", Tuple: datalog.Tuple{1, 2}},
	}, nil); err != nil {
		f.Fatal(err)
	}
	return s
}

func fuzzPost(t *testing.T, s *Service, path string, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req) // any panic fails the fuzz run
	switch w.Code {
	case http.StatusOK, http.StatusBadRequest:
	default:
		t.Fatalf("%s: unexpected status %d (body %q)", path, w.Code, w.Body)
	}
}

func FuzzHTTPQuery(f *testing.F) {
	s := fuzzService(f)
	seeds := []string{
		`{"program":"tc"}`,
		`{"program":"tc","pred":"S","version":0}`,
		`{"program":"tc","tuple":[0,1]}`,
		`{"source":"S(x,y) :- E(x,y). goal S."}`,
		`{"source":"S(x :- E(x,y)."}`,
		`{"program":"tc","pred":"E"}`,
		`{"program":"nope"}`,
		`{"program":"tc","version":-7}`,
		`{"program":"tc","version":99999}`,
		`{"program":"tc","source":"S(x) :- E(x,x)."}`,
		`{"tuple":[1,2,3,4,5,6,7,8]}`,
		"{\"program\":\"tc\",\"pred\":\"\u0000\"}",
		`{`,
		`null`,
		`[]`,
		`{"version":"latest"}`,
		`{} {}`,
	}
	for _, sd := range seeds {
		f.Add([]byte(sd))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, s, "/v1/query", body)
	})
}

func FuzzHTTPCommit(f *testing.F) {
	s := fuzzService(f)
	seeds := []string{
		`{"insert":[{"pred":"E","tuple":[0,1]}]}`,
		`{"delete":[{"pred":"E","tuple":[0,1]}]}`,
		`{"insert":[{"pred":"E","tuple":[0,1,2]}]}`,
		`{"insert":[{"pred":"S","tuple":[0,1]}]}`,
		`{"insert":[{"pred":"E","tuple":[-1,0]}]}`,
		`{"insert":[{"pred":"E","tuple":[0,99]}]}`,
		`{"insert":[{"pred":"","tuple":[0]}]}`,
		`{"insert":[{"pred":"E"}]}`,
		`{"insert":[{"pred":"Fresh","tuple":[1]},{"pred":"Fresh","tuple":[1,2]}]}`,
		`{"insert":[{"pred":"E","tuple":[0,1]}],"delete":[{"pred":"E","tuple":[0,1]}]}`,
		`{"inserts":[]}`,
		`{"insert":{}}`,
		`{`,
		`null`,
		`0`,
	}
	for _, sd := range seeds {
		f.Add([]byte(sd))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, s, "/v1/commit", body)
	})
}
