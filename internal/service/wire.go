package service

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/datalog"
)

// Wire types for the JSON front end. Decoding is strict: unknown fields,
// trailing data and oversized bodies are errors, so malformed requests
// fail loudly instead of being half-read. These types (and DecodeJSON)
// are exported so clients — cmd/datalog's -server mode among them —
// speak exactly the same schema the server validates.

// maxBodyBytes bounds a request body (1 MiB is hundreds of thousands of
// facts; anything bigger should be split across commits).
const maxBodyBytes = 1 << 20

// FactJSON is one fact on the wire.
type FactJSON struct {
	Pred  string `json:"pred"`
	Tuple []int  `json:"tuple"`
}

// CommitRequest applies deletions (against the current version) then
// insertions, producing one new version.
type CommitRequest struct {
	Insert []FactJSON `json:"insert,omitempty"`
	Delete []FactJSON `json:"delete,omitempty"`
}

// CommitResponse reports the published version and per-program
// maintenance times.
type CommitResponse struct {
	Version    int64            `json:"version"`
	Inserted   int              `json:"inserted"`
	Deleted    int              `json:"deleted"`
	Maintained map[string]int64 `json:"maintained_ns,omitempty"`
	// Dropped names the registrations this commit's maintenance failed on
	// and unregistered; the commit itself stands.
	Dropped []string `json:"dropped,omitempty"`
}

// RegisterRequest registers (or replaces) a named program.
type RegisterRequest struct {
	Name    string `json:"name"`
	Program string `json:"program"`
}

// RegisterResponse echoes the registration's identity and initial sizes.
type RegisterResponse struct {
	Name     string         `json:"name"`
	Hash     string         `json:"hash"`
	Version  int64          `json:"version"`
	IDBSizes map[string]int `json:"idb_sizes"`
}

// QueryRequestJSON reads one IDB predicate at a version. Version omitted
// or negative means the latest; Pred omitted means the goal. With Tuple
// set the response carries a membership bit instead of the full relation.
// Bind, when present, must list one entry per argument of the predicate:
// a number binds that position, null leaves it free — `"bind": [0, null]`
// asks for the tuples whose first component is 0. A binding with at
// least one bound position is answered goal-directed via the magic-set
// rewrite of the program.
// Limit caps the returned tuples (0 = all); paginated responses carry
// next_cursor, which Cursor passes back to resume strictly after the
// last tuple of the previous page. Stream (or an Accept header of
// application/x-ndjson) switches the response to NDJSON: a header line,
// one JSON array per tuple produced as it is derived, and a trailer
// line with the count and pagination state. /v1/explain takes the same
// body, and refuses the fields that shape a response rather than a plan:
// Tuple, Limit, Cursor and Stream. A bind with a bound position explains
// the magic-set-rewritten, seeded program the service would actually run.
type QueryRequestJSON struct {
	Program string `json:"program,omitempty"`
	Source  string `json:"source,omitempty"`
	Pred    string `json:"pred,omitempty"`
	Version *int64 `json:"version,omitempty"`
	Tuple   []int  `json:"tuple,omitempty"`
	Bind    []*int `json:"bind,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	Cursor  string `json:"cursor,omitempty"`
	Stream  bool   `json:"stream,omitempty"`
}

// QueryResponse is the answer to one query. Goal and DemandFacts are set
// for goal-directed (bound) queries: the canonical binding pattern and
// the size of the demand set the magic evaluation derived.
type QueryResponse struct {
	Pred        string  `json:"pred"`
	Version     int64   `json:"version"`
	Count       int     `json:"count"`
	Tuples      [][]int `json:"tuples,omitempty"`
	Has         *bool   `json:"has,omitempty"`
	Origin      string  `json:"origin"`
	Goal        string  `json:"goal,omitempty"`
	DemandFacts *int    `json:"demand_facts,omitempty"`
	// NextCursor resumes the next page of a limited query; tuples are in
	// the canonical order (sorted by components), so the page boundary is
	// stable. Empty on the final page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// StreamHeaderJSON is the first line of an NDJSON query response.
// Sorted is false on the genuinely streamed origin: tuples arrive in
// derivation order and a truncated stream has no cursor.
type StreamHeaderJSON struct {
	Pred    string `json:"pred"`
	Version int64  `json:"version"`
	Origin  string `json:"origin"`
	Goal    string `json:"goal,omitempty"`
	Sorted  bool   `json:"sorted"`
}

// StreamTrailerJSON is the last line of an NDJSON query response: the
// tuple count, pagination state (NextCursor on sorted origins, the
// Truncated flag on the unordered streamed origin), and the error that
// cut the stream short, if any.
type StreamTrailerJSON struct {
	Count      int    `json:"count"`
	NextCursor string `json:"next_cursor,omitempty"`
	Truncated  bool   `json:"truncated,omitempty"`
	Error      string `json:"error,omitempty"`
}

// ExplainStepJSON is one join step of a compiled rule body. Exec and Via
// report the streaming executor's decision for the step — "stream"
// (inlined producer) or "materialize" (scan or probe of a stored relation,
// or via "fixpoint" a step of a recursive rule the evaluator's fixpoint
// runs) — on a rule a read of the explained predicate reaches.
type ExplainStepJSON struct {
	Atom      string `json:"atom"`
	OrigIndex int    `json:"orig_index"`
	ProbeCols []int  `json:"probe_cols"`
	Exec      string `json:"exec,omitempty"`
	Via       string `json:"via,omitempty"`
}

// ExplainRuleJSON is one rule as written and as compiled, with the
// counters of evaluating it.
type ExplainRuleJSON struct {
	Original   string            `json:"original"`
	Compiled   string            `json:"compiled"`
	Reordered  bool              `json:"reordered"`
	Steps      []ExplainStepJSON `json:"steps"`
	ActualRows int64             `json:"actual_rows"` // derived rows, duplicates included
	NewRows    int64             `json:"new_rows"`
	Firings    int64             `json:"firings"`
	TimeNs     int64             `json:"time_ns"`
}

// ExplainResponse is how one query runs: every rule of the program it
// evaluates in its compiled join order, with the evaluation's counters.
type ExplainResponse struct {
	Pred    string            `json:"pred"`
	Version int64             `json:"version"`
	Goal    string            `json:"goal,omitempty"`
	Rounds  int               `json:"rounds"`
	Rules   []ExplainRuleJSON `json:"rules"`
}

// maskCols expands a probe bitmask into the column indexes it covers.
func maskCols(mask uint64) []int {
	var cols []int
	for i := 0; mask != 0; i, mask = i+1, mask>>1 {
		if mask&1 != 0 {
			cols = append(cols, i)
		}
	}
	return cols
}

// ErrorEnvelope carries a request failure: a stable machine-readable code
// plus a human-readable message.
type ErrorEnvelope struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// DecodeJSON strictly decodes one JSON value from r into v: unknown
// fields, malformed syntax, trailing non-whitespace and bodies over
// maxBodyBytes are errors. It never panics on any input.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("service: trailing data after JSON body")
	}
	return nil
}

// factsFromWire converts wire facts, rejecting empty predicates and
// missing tuples up front so engine-level validation never sees nils.
func factsFromWire(in []FactJSON) ([]datalog.Fact, error) {
	out := make([]datalog.Fact, 0, len(in))
	for _, f := range in {
		if f.Pred == "" {
			return nil, fmt.Errorf("service: fact with empty predicate name")
		}
		if len(f.Tuple) == 0 {
			return nil, fmt.Errorf("service: fact %s has no tuple", f.Pred)
		}
		out = append(out, datalog.Fact{Pred: f.Pred, Tuple: datalog.Tuple(f.Tuple)})
	}
	return out, nil
}

// tuplesToWire flattens engine tuples for JSON.
func tuplesToWire(in []datalog.Tuple) [][]int {
	out := make([][]int, len(in))
	for i, t := range in {
		out[i] = []int(t)
	}
	return out
}
