package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/datalog"
)

// joinSource is non-recursive, so ad-hoc queries of it run on the
// streaming executor (origin "stream").
const joinSource = `
J(x, z) :- E(x, y), F(y, z).
goal J.
`

func sortedCopy(ts []datalog.Tuple) []datalog.Tuple {
	out := append([]datalog.Tuple(nil), ts...)
	datalog.SortTuples(out)
	return out
}

// TestViewPagesMatchFlatPages walks a published view page by page: from
// every cursor — no cursor, every row, and a tuple between every two rows —
// at limits 0, 1, 2, 255, 256 and 257, the page cut out of the view's
// chunks, as tuples and as wire rows, equals pageTuples over the same rows
// in one flat slice, cursor included. The view is patched a few times first,
// so its chunks are of uneven sizes.
func TestViewPagesMatchFlatPages(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var rows []datalog.Tuple
	for x := 0; x < 700; x++ {
		rows = append(rows, datalog.Tuple{2 * x, 2 * rng.Intn(4)})
	}
	datalog.SortTuples(rows)
	rows = slices.CompactFunc(rows, func(a, b datalog.Tuple) bool { return datalog.CompareTuples(a, b) == 0 })
	v := datalog.NewView(2, rows)
	for step := 0; step < 4; step++ {
		flat := v.Tuples()
		var added, removed []datalog.Tuple
		for _, r := range flat {
			switch rng.Intn(12) {
			case 0:
				removed = append(removed, r)
			case 1:
				if r[0]%2 == 0 { // one row per even first component
					for i := 0; i < rng.Intn(90); i++ {
						added = append(added, datalog.Tuple{r[0] + 1, 100*step + i})
					}
				}
			}
		}
		v = v.Patch(added, removed)
	}
	flat := v.Tuples()
	cursors := []datalog.Tuple{nil}
	for _, r := range flat {
		cursors = append(cursors, r, datalog.Tuple{r[0], r[1] + 1})
	}
	for _, after := range cursors {
		for _, limit := range []int{0, 1, 2, 255, 256, 257} {
			want, wantCursor := pageTuples(flat, after, limit)
			got, gotCursor := viewPage[datalog.Tuple](v, after, limit)
			wire, wireCursor := viewPage[[]int](v, after, limit)
			same := len(got) == len(want) && len(wire) == len(want)
			for i := 0; same && i < len(want); i++ {
				same = datalog.CompareTuples(got[i], want[i]) == 0 && datalog.CompareTuples(wire[i], want[i]) == 0
			}
			if !same || gotCursor != wantCursor || wireCursor != wantCursor {
				t.Fatalf("after %v, limit %d: view page %v (cursor %q), wire %v (%q); flat page %v (%q)",
					after, limit, got, gotCursor, wire, wireCursor, want, wantCursor)
			}
		}
	}
}

func TestQueryPagination(t *testing.T) {
	s := newTC(t, 8)
	defer s.Close()
	if _, err := s.Commit([]datalog.Fact{edge(0, 1), edge(1, 2), edge(2, 3), edge(3, 4)}, nil); err != nil {
		t.Fatal(err)
	}
	full, err := s.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Tuples) != 10 {
		t.Fatalf("closure of a 5-chain has %d tuples, want 10", len(full.Tuples))
	}

	// Page through with limit 3; the union must equal the full set, in
	// order, with no overlaps.
	var paged []datalog.Tuple
	cursor := ""
	pages := 0
	for {
		res, err := s.Query(QueryRequest{Program: "tc", Version: -1, Limit: 3, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) > 3 {
			t.Fatalf("page %d has %d tuples, limit 3", pages, len(res.Tuples))
		}
		paged = append(paged, res.Tuples...)
		pages++
		if res.NextCursor == "" {
			break
		}
		cursor = res.NextCursor
	}
	if pages != 4 {
		t.Fatalf("10 tuples at limit 3 took %d pages, want 4", pages)
	}
	if fmt.Sprint(paged) != fmt.Sprint(full.Tuples) {
		t.Fatalf("paged union differs from full result:\npaged %v\nfull  %v", paged, full.Tuples)
	}

	// Canonical-order regression: the same request returns byte-identical
	// pages on repeat — the old map-iteration nondeterminism would break
	// cursors between calls.
	for i := 0; i < 3; i++ {
		res, err := s.Query(QueryRequest{Program: "tc", Version: -1, Limit: 3})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Tuples) != fmt.Sprint(full.Tuples[:3]) || res.NextCursor == "" {
			t.Fatalf("repeat %d: first page %v next_cursor=%q, want %v", i, res.Tuples, res.NextCursor, full.Tuples[:3])
		}
	}
	// And the full set itself is in the documented canonical order.
	if fmt.Sprint(sortedCopy(full.Tuples)) != fmt.Sprint(full.Tuples) {
		t.Fatalf("full result is not canonically sorted: %v", full.Tuples)
	}
}

func TestQueryStreamOrigins(t *testing.T) {
	s := newTC(t, 16)
	defer s.Close()
	var facts []datalog.Fact
	for i := 0; i < 10; i++ {
		facts = append(facts, edge(i, i+1))
		facts = append(facts, datalog.Fact{Pred: "F", Tuple: datalog.Tuple{i + 1, i}})
	}
	if _, err := s.Commit(facts, nil); err != nil {
		t.Fatal(err)
	}

	// Ad-hoc non-recursive source: genuinely streamed.
	q, err := s.QueryStream(t.Context(), QueryRequest{Source: joinSource, Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []datalog.Tuple
	for {
		tu, ok := q.Next()
		if !ok {
			break
		}
		streamed = append(streamed, tu)
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if q.Origin != "stream" || q.Sorted {
		t.Fatalf("ad-hoc join: origin=%q sorted=%v, want stream/unsorted", q.Origin, q.Sorted)
	}
	ref, err := s.Query(QueryRequest{Source: joinSource, Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sortedCopy(streamed)) != fmt.Sprint(ref.Tuples) {
		t.Fatalf("streamed answers differ after sort:\ngot  %v\nwant %v", sortedCopy(streamed), ref.Tuples)
	}

	// Recursive ad-hoc source: streamed too, out of the fixpoint the
	// evaluator fills on the first pull.
	q2, err := s.QueryStream(t.Context(), QueryRequest{Source: tcSource, Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	var closure []datalog.Tuple
	for {
		tu, ok := q2.Next()
		if !ok {
			break
		}
		closure = append(closure, tu)
	}
	q2.Close()
	if q2.Origin != "stream" || q2.Sorted || q2.Err() != nil {
		t.Fatalf("recursive source: origin=%q sorted=%v err=%v, want stream/unsorted", q2.Origin, q2.Sorted, q2.Err())
	}
	ref2, err := s.Query(QueryRequest{Source: tcSource, Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sortedCopy(closure)) != fmt.Sprint(ref2.Tuples) {
		t.Fatalf("streamed closure differs after sort:\ngot  %v\nwant %v", sortedCopy(closure), ref2.Tuples)
	}

	// Registered program at the current version: served from the view.
	q3, err := s.QueryStream(t.Context(), QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if q3.Origin != "materialized" {
		t.Fatalf("registered program stream origin %q", q3.Origin)
	}
	if s.Stats().Stream.Active != 1 {
		t.Fatalf("streams active %d with one stream open", s.Stats().Stream.Active)
	}
}

func TestQueryStreamLimitLookahead(t *testing.T) {
	s := newTC(t, 16)
	defer s.Close()
	var facts []datalog.Fact
	for i := 0; i < 8; i++ {
		facts = append(facts, edge(i, i+1))
		facts = append(facts, datalog.Fact{Pred: "F", Tuple: datalog.Tuple{i + 1, i}})
	}
	if _, err := s.Commit(facts, nil); err != nil {
		t.Fatal(err)
	}
	// Unsorted streamed origin at a limit: More without a cursor.
	q, err := s.QueryStream(t.Context(), QueryRequest{Source: joinSource, Version: -1, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := q.Next(); !ok {
			break
		}
		n++
	}
	q.Close()
	if n != 2 || !q.More() || q.NextCursor() != "" {
		t.Fatalf("streamed limit: n=%d more=%v cursor=%q, want 2/true/empty", n, q.More(), q.NextCursor())
	}
	// Sorted origin at a limit: an exact cursor, and the cursor resumes
	// with no overlap or gap.
	q2, err := s.QueryStream(t.Context(), QueryRequest{Program: "tc", Version: -1, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	var first []datalog.Tuple
	for {
		tu, ok := q2.Next()
		if !ok {
			break
		}
		first = append(first, tu)
	}
	q2.Close()
	cur := q2.NextCursor()
	if len(first) != 3 || cur == "" {
		t.Fatalf("sorted limit: %d tuples cursor=%q", len(first), cur)
	}
	q3, err := s.QueryStream(t.Context(), QueryRequest{Program: "tc", Version: -1, Cursor: cur})
	if err != nil {
		t.Fatal(err)
	}
	var rest []datalog.Tuple
	for {
		tu, ok := q3.Next()
		if !ok {
			break
		}
		rest = append(rest, tu)
	}
	q3.Close()
	full, err := s.Query(QueryRequest{Program: "tc", Version: -1})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(append(first, rest...)) != fmt.Sprint(full.Tuples) {
		t.Fatalf("cursor resume: pages %v + %v != full %v", first, rest, full.Tuples)
	}
}

// readNDJSON decodes one NDJSON query response body.
func readNDJSON(t *testing.T, body io.Reader) (StreamHeaderJSON, []datalog.Tuple, StreamTrailerJSON) {
	t.Helper()
	dec := json.NewDecoder(body)
	var hdr StreamHeaderJSON
	if err := dec.Decode(&hdr); err != nil {
		t.Fatalf("stream header: %v", err)
	}
	var tuples []datalog.Tuple
	var tr StreamTrailerJSON
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("stream body: %v", err)
		}
		var tu []int
		if err := json.Unmarshal(raw, &tu); err == nil {
			tuples = append(tuples, datalog.Tuple(tu))
			continue
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("stream trailer: %v (line %s)", err, raw)
		}
		return hdr, tuples, tr
	}
}

func TestHTTPNDJSONQuery(t *testing.T) {
	s := newTC(t, 16)
	defer s.Close()
	h := s.Handler()
	if w := post(t, h, "/v1/commit", `{"insert":[{"pred":"E","tuple":[0,1]},{"pred":"E","tuple":[1,2]},{"pred":"F","tuple":[1,5]},{"pred":"F","tuple":[2,6]}]}`); w.Code != http.StatusOK {
		t.Fatalf("/v1/commit: %d %s", w.Code, w.Body)
	}

	// Ad-hoc non-recursive source via the "stream" field.
	body := fmt.Sprintf(`{"source":%q,"stream":true}`, joinSource)
	w := post(t, h, "/v1/query", body)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/query stream: %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	hdr, tuples, tr := readNDJSON(t, w.Body)
	if hdr.Pred != "J" || hdr.Origin != "stream" || hdr.Sorted {
		t.Fatalf("stream header %+v", hdr)
	}
	if tr.Count != len(tuples) || tr.Error != "" {
		t.Fatalf("trailer %+v for %d tuples", tr, len(tuples))
	}
	ref := post(t, h, "/v1/query", fmt.Sprintf(`{"source":%q}`, joinSource))
	var refQ QueryResponse
	if err := json.Unmarshal(ref.Body.Bytes(), &refQ); err != nil {
		t.Fatal(err)
	}
	var refT []datalog.Tuple
	for _, tu := range refQ.Tuples {
		refT = append(refT, datalog.Tuple(tu))
	}
	if fmt.Sprint(sortedCopy(tuples)) != fmt.Sprint(refT) {
		t.Fatalf("NDJSON answers differ after sort:\ngot  %v\nwant %v", sortedCopy(tuples), refT)
	}

	// Accept header alone also switches to NDJSON.
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(fmt.Sprintf(`{"source":%q}`, joinSource)))
	req.Header.Set("Accept", "application/x-ndjson")
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if ct := rw.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Accept negotiation: content type %q", ct)
	}

	// Membership tuples make no sense on a stream.
	if w := post(t, h, "/v1/query", `{"program":"tc","stream":true,"tuple":[0,1]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("stream+tuple: %d, want 400", w.Code)
	}
}

func TestHTTPNDJSONPaginationAndBoundGoal(t *testing.T) {
	s := newTC(t, 16)
	defer s.Close()
	h := s.Handler()
	if w := post(t, h, "/v1/commit", `{"insert":[{"pred":"E","tuple":[0,1]},{"pred":"E","tuple":[1,2]},{"pred":"E","tuple":[2,3]}]}`); w.Code != http.StatusOK {
		t.Fatalf("/v1/commit: %d %s", w.Code, w.Body)
	}

	// NDJSON pages over a registered program (sorted origin → exact
	// cursors); the concatenation equals the full sorted answer.
	var all []datalog.Tuple
	cursor := ""
	for {
		body := fmt.Sprintf(`{"program":"tc","stream":true,"limit":2,"cursor":%q}`, cursor)
		w := post(t, h, "/v1/query", body)
		if w.Code != http.StatusOK {
			t.Fatalf("page: %d %s", w.Code, w.Body)
		}
		hdr, tuples, tr := readNDJSON(t, w.Body)
		if !hdr.Sorted {
			t.Fatalf("paged stream not sorted: %+v", hdr)
		}
		all = append(all, tuples...)
		if tr.NextCursor == "" {
			if tr.Truncated {
				t.Fatalf("sorted page reported truncated: %+v", tr)
			}
			break
		}
		cursor = tr.NextCursor
	}
	full := post(t, h, "/v1/query", `{"program":"tc"}`)
	var fq QueryResponse
	if err := json.Unmarshal(full.Body.Bytes(), &fq); err != nil {
		t.Fatal(err)
	}
	if len(all) != fq.Count {
		t.Fatalf("paged NDJSON saw %d tuples, full query %d", len(all), fq.Count)
	}

	// Bound goal over NDJSON matches the non-streamed bound answer.
	w := post(t, h, "/v1/query", `{"program":"tc","bind":[0,null],"stream":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("bound stream: %d %s", w.Code, w.Body)
	}
	hdr, tuples, tr := readNDJSON(t, w.Body)
	if hdr.Goal != "S(0,_)" || hdr.Pred != "S" {
		t.Fatalf("bound stream header %+v", hdr)
	}
	if tr.Error != "" {
		t.Fatalf("bound stream trailer %+v", tr)
	}
	refW := post(t, h, "/v1/query", `{"program":"tc","bind":[0,null]}`)
	var refQ QueryResponse
	if err := json.Unmarshal(refW.Body.Bytes(), &refQ); err != nil {
		t.Fatal(err)
	}
	if len(tuples) != refQ.Count {
		t.Fatalf("bound stream %d tuples, bound query %d", len(tuples), refQ.Count)
	}
}

func TestHTTPInvalidCursor(t *testing.T) {
	s := newTC(t, 8)
	defer s.Close()
	h := s.Handler()
	if w := post(t, h, "/v1/commit", `{"insert":[{"pred":"E","tuple":[0,1]}]}`); w.Code != http.StatusOK {
		t.Fatalf("/v1/commit: %d %s", w.Code, w.Body)
	}
	for _, body := range []string{
		`{"program":"tc","cursor":"not-a-cursor"}`,
		`{"program":"tc","cursor":"1,x"}`,
		`{"program":"tc","limit":-1}`,
		`{"program":"tc","cursor":"2,","stream":true}`,
	} {
		w := post(t, h, "/v1/query", body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, w.Code)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Code != "bad_request" {
			t.Fatalf("%s: envelope %s", body, w.Body)
		}
	}
}

// TestHTTPDeprecationHeaders: the unversioned routes have served their
// deprecation cycle — POST /query is 404 — and /v1/query carries no
// Deprecation header.
func TestHTTPDeprecationHeaders(t *testing.T) {
	s := newTC(t, 8)
	defer s.Close()
	h := s.Handler()
	if w := post(t, h, "/query", `{"program":"tc"}`); w.Code != http.StatusNotFound {
		t.Fatalf("legacy /query: %d, want 404", w.Code)
	}
	w := post(t, h, "/v1/query", `{"program":"tc"}`)
	if w.Code != http.StatusOK || w.Header().Get("Deprecation") != "" || w.Header().Get("Link") != "" {
		t.Fatalf("/v1/query: %d, headers %v", w.Code, w.Header())
	}
}

func TestHTTPExplainStreamDecisions(t *testing.T) {
	s := newTC(t, 16)
	defer s.Close()
	h := s.Handler()
	if w := post(t, h, "/v1/commit", `{"insert":[{"pred":"E","tuple":[0,1]},{"pred":"F","tuple":[1,2]}]}`); w.Code != http.StatusOK {
		t.Fatalf("/v1/commit: %d %s", w.Code, w.Body)
	}

	// via reports, per step, how a streamed run executes it: every step of
	// a recursive rule through the evaluator's fixpoint, and no step of a
	// non-recursive program that way. Bound requests report the decisions
	// for what a bound stream runs: the seeded rewrite's answer predicate.
	for body, recursive := range map[string]bool{
		fmt.Sprintf(`{"source":%q}`, joinSource):                 false,
		fmt.Sprintf(`{"source":%q,"bind":[0,null]}`, joinSource): false,
		`{"program":"tc"}`:                 true,
		`{"program":"tc","bind":[0,null]}`: true,
	} {
		w := post(t, h, "/v1/explain", body)
		if w.Code != http.StatusOK {
			t.Fatalf("/v1/explain %s: %d %s", body, w.Code, w.Body)
		}
		var exp ExplainResponse
		if err := json.Unmarshal(w.Body.Bytes(), &exp); err != nil {
			t.Fatal(err)
		}
		if (exp.Goal != "") != strings.Contains(body, "bind") {
			t.Fatalf("%s: goal %q", body, exp.Goal)
		}
		steps := 0
		for _, r := range exp.Rules {
			for _, st := range r.Steps {
				steps++
				if st.Exec != "stream" && st.Exec != "materialize" {
					t.Fatalf("%s: step %q exec %q", body, st.Atom, st.Exec)
				}
				if (st.Via == "fixpoint") != recursive || (recursive && st.Exec != "materialize") {
					t.Fatalf("%s: step %q exec %q via %q", body, st.Atom, st.Exec, st.Via)
				}
			}
		}
		if steps == 0 {
			t.Fatalf("%s: no steps explained: %s", body, w.Body)
		}
	}
}

// TestNDJSONDisconnectCancelsEvaluation opens a streamed query whose full
// answer set is large, reads a handful of lines over a real TCP
// connection, and disconnects. The server must cancel the evaluation:
// the active-streams gauge returns to zero and the rows counter stays
// far below the full answer count.
func TestNDJSONDisconnectCancelsEvaluation(t *testing.T) {
	s, err := New(Config{Universe: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var facts []datalog.Fact
	for i := 0; i < 199; i++ {
		facts = append(facts, edge(i, i+1))
	}
	if _, err := s.Commit(facts, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// P has ~199*199 ≈ 40k answers: every edge × every w != x.
	const bigSource = `
P(x, y, w) :- E(x, y), w != x, w != y.
goal P.
`
	body := fmt.Sprintf(`{"source":%q,"stream":true}`, bigSource)
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream request: %d %s", resp.StatusCode, b)
	}
	br := bufio.NewReader(resp.Body)
	read := 0
	for read < 5 {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading stream: %v", err)
		}
		read++
	}
	resp.Body.Close() // disconnect mid-stream

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Stream.Active == 0 {
			// How many rows slip out before the disconnect propagates is
			// scheduler- and buffer-dependent (a contended one-core box can
			// let tens of thousands through), so the assertion is the
			// property itself: the evaluation stopped short of the full
			// answer set rather than draining it.
			if st.Stream.Rows >= 199*198 {
				t.Fatalf("server drained the whole answer set (%d rows) despite the disconnect", st.Stream.Rows)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream still active %ds after client disconnect (rows=%d)", 10, st.Stream.Rows)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
