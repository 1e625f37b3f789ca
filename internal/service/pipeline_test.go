package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/magic"
)

// matrixRow is one cell of the read pipeline's cross product: who names the
// program, which version, whether a position is bound, which wire format,
// how the answer is paged, and whether the program's reachable slice is
// recursive (tc) or streams (hop2).
type matrixRow struct {
	registered, latest, bound, ndjson, recursive bool
	paging                                       string // "none", "limit" or "cursor"
}

func (r matrixRow) String() string {
	pick := func(b bool, yes, no string) string {
		if b {
			return yes
		}
		return no
	}
	return strings.Join([]string{
		pick(r.registered, "registered", "adhoc"), pick(r.latest, "latest", "pinned"),
		pick(r.bound, "bound", "unbound"), pick(r.ndjson, "ndjson", "json"),
		r.paging, pick(r.recursive, "tc", "hop2"),
	}, "/")
}

// view reports that the row reads a registered program's published view.
func (r matrixRow) view() bool { return r.registered && r.latest && !r.bound }

// streams reports that the row's first request runs on the streaming
// executor: an NDJSON request without a cursor that does not read the view.
func (r matrixRow) streams() bool {
	return r.ndjson && r.paging != "cursor" && !r.view()
}

// origin is what the first request of a row on a fresh service reports.
func (r matrixRow) origin() string {
	switch {
	case r.streams():
		return "stream"
	case r.bound:
		return "magic"
	case r.view():
		return "materialized"
	default:
		return "eval"
	}
}

// matrixPage is one response, JSON or NDJSON, in one shape.
type matrixPage struct {
	origin    string
	sorted    bool
	tuples    []datalog.Tuple
	next      string
	truncated bool
	demand    *int
}

const matrixUniverse = 8

// The matrix graph at its two versions: v2 adds two edges and drops one, so
// neither version's answers contain the other's.
var (
	matrixV1      = [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {1, 5}, {2, 5}, {2, 6}, {3, 6}, {3, 7}, {6, 0}}
	matrixV2Plus  = [][2]int{{3, 1}, {1, 2}}
	matrixV2Minus = [][2]int{{3, 7}}
)

// matrixReference is the row's whole answer by the naive fixpoint on the
// test's own copy of the EDB, filtered by the binding, canonically sorted.
func matrixReference(t *testing.T, r matrixRow, source string) []datalog.Tuple {
	t.Helper()
	db := datalog.NewDatabase(matrixUniverse)
	db.EnsureRelation("E", 2)
	for _, e := range matrixV1 {
		db.AddFact("E", e[0], e[1])
	}
	if r.latest {
		for _, e := range matrixV2Plus {
			db.AddFact("E", e[0], e[1])
		}
		for _, e := range matrixV2Minus {
			db.Relation("E").Remove(datalog.Tuple{e[0], e[1]})
		}
	}
	p, err := datalog.Parse(source)
	if err != nil {
		t.Fatal(err)
	}
	res, err := datalog.Eval(p, db, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out []datalog.Tuple
	for _, tup := range res.Goal(p).Tuples() {
		if !r.bound || tup[0] == 0 {
			out = append(out, tup)
		}
	}
	return out
}

// TestReadPipelineMatrix pins what /v1/query answers over the cross product
// {registered, ad-hoc source} × {latest, pinned older version} × {unbound,
// bound} × {JSON, NDJSON} × {no paging, limit, cursor} × {recursive tc,
// non-recursive hop2}: origin, sortedness, the tuple set against a naive
// filter of the full fixpoint, next_cursor versus truncated, demand_facts
// against magic.EvalRewritten's on the same snapshot, that walking the
// pages reassembles the whole answer, and how many evaluations the row
// cost: one per page that does not read the view. Each row runs on a fresh
// service.
func TestReadPipelineMatrix(t *testing.T) {
	const limit = 3
	var rows []matrixRow
	for i := 0; i < 32; i++ {
		for _, paging := range []string{"none", "limit", "cursor"} {
			rows = append(rows, matrixRow{
				registered: i&1 != 0, latest: i&2 != 0, bound: i&4 != 0,
				ndjson: i&8 != 0, recursive: i&16 != 0, paging: paging,
			})
		}
	}
	for _, r := range rows {
		t.Run(r.String(), func(t *testing.T) {
			s, err := New(Config{Universe: matrixUniverse})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for name, src := range map[string]string{"tc": tcSource, "hop2": hop2Source} {
				if _, err := s.Register(name, src); err != nil {
					t.Fatal(err)
				}
			}
			facts := func(edges [][2]int) []datalog.Fact {
				var out []datalog.Fact
				for _, e := range edges {
					out = append(out, edge(e[0], e[1]))
				}
				return out
			}
			info, err := s.Commit(facts(matrixV1), nil)
			if err != nil {
				t.Fatal(err)
			}
			v1 := info.Version
			if _, err := s.Commit(facts(matrixV2Plus), facts(matrixV2Minus)); err != nil {
				t.Fatal(err)
			}

			name, source, pred := "hop2", hop2Source, "J"
			if r.recursive {
				name, source, pred = "tc", tcSource, "S"
			}
			whole := matrixReference(t, r, source)
			if len(whole) <= limit {
				t.Fatalf("reference answer has %d tuples, too few to page at limit %d", len(whole), limit)
			}
			// A bound JSON answer reports the demand-set size magic's own
			// evaluation of the seeded rewrite derives on the same snapshot.
			wantDemand := 0
			if r.bound && !r.ndjson {
				version := s.Store().Version()
				if !r.latest {
					version = v1
				}
				snap, ok := s.Store().At(version)
				if !ok {
					t.Fatalf("version %d not retained", version)
				}
				g := datalog.NewGoal(pred, 2, map[int]int{0: 0})
				rw, err := magic.NewRewrite(datalog.MustParse(source), g, magic.BoundFirstSIP{})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := magic.EvalRewritten(context.Background(), rw, snap.DB, g, datalog.DefaultOptions)
				if err != nil {
					t.Fatal(err)
				}
				wantDemand = ref.Stats.DemandFacts
			}
			demandOK := func(p matrixPage) bool {
				if p.origin != "magic" || r.ndjson {
					return p.demand == nil
				}
				return p.demand != nil && *p.demand == wantDemand
			}
			h := s.Handler()
			pages := 0
			fetch := func(cursor string, limit int) matrixPage {
				t.Helper()
				pages++
				req := QueryRequestJSON{Limit: limit, Cursor: cursor, Stream: r.ndjson}
				if r.registered {
					req.Program = name
				} else {
					req.Source = source
				}
				if !r.latest {
					req.Version = &v1
				}
				if r.bound {
					req.Bind = bindOf(2, map[int]int{0: 0})
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				w := post(t, h, "/v1/query", string(body))
				if w.Code != http.StatusOK {
					t.Fatalf("/v1/query %s: %d %s", body, w.Code, w.Body)
				}
				if r.ndjson {
					hdr, tuples, tr := readNDJSON(t, w.Body)
					if tr.Error != "" || tr.Count != len(tuples) {
						t.Fatalf("trailer %+v for %d tuples", tr, len(tuples))
					}
					if hdr.Pred != pred || (hdr.Goal != "") != r.bound {
						t.Fatalf("stream header %+v", hdr)
					}
					return matrixPage{origin: hdr.Origin, sorted: hdr.Sorted, tuples: tuples, next: tr.NextCursor, truncated: tr.Truncated}
				}
				var q QueryResponse
				if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
					t.Fatal(err)
				}
				if q.Pred != pred || q.Count != len(q.Tuples) || (q.Goal != "") != r.bound {
					t.Fatalf("response %s", w.Body)
				}
				page := matrixPage{origin: q.Origin, sorted: true, next: q.NextCursor, demand: q.DemandFacts}
				for _, tup := range q.Tuples {
					page.tuples = append(page.tuples, datalog.Tuple(tup))
				}
				return page
			}

			// The first request: the row as the matrix states it.
			rest, cursor, pageLimit := whole, "", 0
			if r.paging != "none" {
				pageLimit = limit
			}
			if r.paging == "cursor" {
				cursor, rest = encodeCursor(whole[1]), whole[2:]
			}
			page := fetch(cursor, pageLimit)
			if page.origin != r.origin() || page.sorted != !r.streams() {
				t.Fatalf("origin %q sorted %v, want %q %v", page.origin, page.sorted, r.origin(), !r.streams())
			}
			if !demandOK(page) {
				t.Fatalf("demand_facts %v on a %s answer of origin %q, want %d on bound JSON", page.demand, r, page.origin, wantDemand)
			}
			wantLen := len(rest)
			if pageLimit > 0 && wantLen > pageLimit {
				wantLen = pageLimit
			}
			more := wantLen < len(rest)
			if r.streams() {
				// Arrival order: the page is any wantLen distinct answers, and
				// a cut stream says truncated, never a cursor.
				answers, seen := map[string]bool{}, map[string]bool{}
				for _, tup := range whole {
					answers[tup.String()] = true
				}
				for _, tup := range page.tuples {
					if !answers[tup.String()] || seen[tup.String()] {
						t.Fatalf("streamed page %v: %v is wrong or repeated, the naive fixpoint has %v", page.tuples, tup, whole)
					}
					seen[tup.String()] = true
				}
				if len(page.tuples) != wantLen {
					t.Fatalf("streamed page has %d tuples, want %d", len(page.tuples), wantLen)
				}
				if page.next != "" || page.truncated != more {
					t.Fatalf("streamed page: next_cursor %q truncated %v, want none and %v", page.next, page.truncated, more)
				}
			} else {
				got := append([]datalog.Tuple(nil), page.tuples...)
				// Walk the rest of the pages by cursor: each comes from where
				// the first page came from — the view, or a new evaluation.
				for next := page.next; next != ""; {
					if page.truncated {
						t.Fatalf("sorted page reported truncated")
					}
					p := fetch(next, pageLimit)
					if p.origin != page.origin || !p.sorted || !demandOK(p) {
						t.Fatalf("page after %q: origin %q sorted %v demand %v, want %q sorted", next, p.origin, p.sorted, p.demand, page.origin)
					}
					if len(p.tuples) == 0 || len(p.tuples) > pageLimit {
						t.Fatalf("page after %q has %d tuples at limit %d", next, len(p.tuples), pageLimit)
					}
					got = append(got, p.tuples...)
					next = p.next
				}
				if (page.next != "") != more {
					t.Fatalf("first page next_cursor %q, more answers %v", page.next, more)
				}
				if fmt.Sprint(got) != fmt.Sprint(rest) {
					t.Fatalf("pages reassemble to %v, the naive fixpoint has %v", got, rest)
				}
			}

			// What the row cost: one evaluation per page, none on the view.
			wantEvals := int64(pages)
			if r.view() {
				wantEvals = 0
			}
			if st := s.Stats(); st.Evals != wantEvals {
				t.Fatalf("scratch evals %d over %d pages, want %d", st.Evals, pages, wantEvals)
			}
		})
	}
}
