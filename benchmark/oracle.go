package main

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/service"
)

// The correctness oracle. The generator mirrors the EDB it has committed
// and derives every expected answer itself — S(x,_) by breadth-first
// search, J(x,_) by two-hop expansion — sharing no code with the engine, so
// a wrong answer from any executor, cache or maintenance path is a counted
// failure, not a fast success.

// mirror is the generator's copy of the EDB relation E.
type mirror struct {
	out [][]int // out[u]: successors of u, unordered
	has map[edge]struct{}
}

func newMirror(universe int) *mirror {
	return &mirror{out: make([][]int, universe), has: map[edge]struct{}{}}
}

// insert adds e, reporting whether it was new (what the server counts as
// inserted).
func (m *mirror) insert(e edge) bool {
	if _, ok := m.has[e]; ok {
		return false
	}
	m.has[e] = struct{}{}
	m.out[e[0]] = append(m.out[e[0]], e[1])
	return true
}

// remove deletes e, reporting whether it was present.
func (m *mirror) remove(e edge) bool {
	if _, ok := m.has[e]; !ok {
		return false
	}
	delete(m.has, e)
	succ := m.out[e[0]]
	for i, v := range succ {
		if v == e[1] {
			succ[i] = succ[len(succ)-1]
			m.out[e[0]] = succ[:len(succ)-1]
			break
		}
	}
	return true
}

// apply runs one commit against the mirror in the server's order — deletes
// first — and returns the counts the server must report.
func (m *mirror) apply(ins, del []edge) (inserted, deleted int) {
	for _, e := range del {
		if m.remove(e) {
			deleted++
		}
	}
	for _, e := range ins {
		if m.insert(e) {
			inserted++
		}
	}
	return inserted, deleted
}

// reference is the expected content of the tc and hop2 views at one EDB
// version, each in the canonical (lexicographic) order the server pages in.
type reference struct {
	version  int64
	tc, hop2 [][2]int
}

// closure derives both views from scratch.
func (m *mirror) closure(version int64) *reference {
	ref := &reference{version: version}
	seen := make([]int, len(m.out)) // seen[y] == x+1: y reached in x's search
	var queue, ys []int
	for x := range m.out {
		if len(m.out[x]) == 0 {
			continue
		}
		// S(x,y): y reachable from x by a path of at least one edge.
		queue, ys = queue[:0], ys[:0]
		for _, y := range m.out[x] {
			if seen[y] != x+1 {
				seen[y] = x + 1
				queue = append(queue, y)
			}
		}
		for len(queue) > 0 {
			z := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ys = append(ys, z)
			for _, y := range m.out[z] {
				if seen[y] != x+1 {
					seen[y] = x + 1
					queue = append(queue, y)
				}
			}
		}
		sort.Ints(ys)
		for _, y := range ys {
			ref.tc = append(ref.tc, [2]int{x, y})
		}
		// J(x,y): E(x,z), E(z,y), x != y.
		ys = ys[:0]
		for _, z := range m.out[x] {
			for _, y := range m.out[z] {
				if y != x {
					ys = append(ys, y)
				}
			}
		}
		sort.Ints(ys)
		for i, y := range ys {
			if i == 0 || y != ys[i-1] {
				ref.hop2 = append(ref.hop2, [2]int{x, y})
			}
		}
	}
	return ref
}

func (r *reference) view(prog string) [][2]int {
	if prog == "tc" {
		return r.tc
	}
	return r.hop2
}

// pages is how many limit-256 pages a walk of the view takes (an empty view
// still answers one, empty, page).
func pages(view [][2]int) int {
	if len(view) == 0 {
		return 1
	}
	return (len(view) + pageLimit - 1) / pageLimit
}

// locate resolves a walk position to a view and a page of it.
func (r *reference) locate(pos uint64) (prog string, page int) {
	p, q := pages(r.tc), pages(r.hop2)
	at := int(pos % uint64(p+q))
	if at < p {
		return "tc", at
	}
	return "hop2", at - p
}

// before is the tuple a page's cursor names — the last tuple of the page
// before it — or nil for the first page.
func (r *reference) before(prog string, page int) *[2]int {
	if page == 0 {
		return nil
	}
	return &r.view(prog)[page*pageLimit-1]
}

// cursorOf renders a tuple as the server's resumption cursor.
func cursorOf(t *[2]int) string {
	if t == nil {
		return ""
	}
	return strconv.Itoa(t[0]) + "," + strconv.Itoa(t[1])
}

// answers is the slice of the view whose first component is x.
func answers(view [][2]int, x int) [][2]int {
	lo := sort.Search(len(view), func(i int) bool { return view[i][0] >= x })
	hi := sort.Search(len(view), func(i int) bool { return view[i][0] > x })
	return view[lo:hi]
}

func sameTuples(got [][]int, want [][2]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d tuples, want %d", len(got), len(want))
	}
	for i, t := range got {
		if len(t) != 2 || t[0] != want[i][0] || t[1] != want[i][1] {
			return fmt.Errorf("tuple %d is %v, want %v", i, t, want[i])
		}
	}
	return nil
}

// checkPage verifies one page: exactly the reference's first 256 tuples
// strictly after the cursor, in order, with the cursor of the next page —
// which implies sortedness, and over a whole walk that the view's total
// size is the reference closure's. The cursor may come from the reference
// one version back (a commit landed between choosing it and the read), so
// it is located by value, not by index.
func (r *reference) checkPage(prog string, after *[2]int, resp *service.QueryResponse) error {
	view := r.view(prog)
	lo := 0
	if after != nil {
		lo = sort.Search(len(view), func(i int) bool {
			return view[i][0] > after[0] || view[i][0] == after[0] && view[i][1] > after[1]
		})
	}
	hi := min(lo+pageLimit, len(view))
	if resp.Version != r.version {
		return fmt.Errorf("page of %s: version %d, want %d", prog, resp.Version, r.version)
	}
	if err := sameTuples(resp.Tuples, view[lo:hi]); err != nil {
		return fmt.Errorf("page of %s after %q at version %d: %w", prog, cursorOf(after), r.version, err)
	}
	want := ""
	if hi < len(view) {
		want = cursorOf(&view[hi-1])
	}
	if resp.Count != hi-lo || resp.NextCursor != want {
		return fmt.Errorf("page of %s after %q: count %d next_cursor %q, want %d %q",
			prog, cursorOf(after), resp.Count, resp.NextCursor, hi-lo, want)
	}
	return nil
}

// checkGoal verifies a materialized bound goal by set equality (the server
// answers in canonical order, so equal sets are equal sequences).
func (r *reference) checkGoal(prog string, x int, resp *service.QueryResponse) error {
	if resp.Version != r.version {
		return fmt.Errorf("goal %s(%d,_): version %d, want %d", prog, x, resp.Version, r.version)
	}
	if err := sameTuples(resp.Tuples, answers(r.view(prog), x)); err != nil {
		return fmt.Errorf("goal %s(%d,_) at version %d: %w", prog, x, r.version, err)
	}
	return nil
}

// checkStream verifies a limit-16 NDJSON goal: rows arrive unordered, so
// they must be distinct members of the reference answer, min(limit, |answer|)
// of them, and the trailer must say whether the answer went on.
func (r *reference) checkStream(prog string, x int, rows [][]int, trailer *service.StreamTrailerJSON) error {
	want := answers(r.view(prog), x)
	n := min(streamLimit, len(want))
	if len(rows) != n || trailer.Count != n {
		return fmt.Errorf("stream %s(%d,_): %d rows, trailer count %d, want %d", prog, x, len(rows), trailer.Count, n)
	}
	if trailer.Error != "" {
		return fmt.Errorf("stream %s(%d,_): trailer error %q", prog, x, trailer.Error)
	}
	if more := len(want) > streamLimit; (trailer.Truncated || trailer.NextCursor != "") != more {
		return fmt.Errorf("stream %s(%d,_): trailer %+v, but the answer has %d rows", prog, x, *trailer, len(want))
	}
	seen := map[int]bool{}
	for _, t := range rows {
		if len(t) != 2 || t[0] != x || seen[t[1]] {
			return fmt.Errorf("stream %s(%d,_): bad or repeated row %v", prog, x, t)
		}
		seen[t[1]] = true
		i := sort.Search(len(want), func(i int) bool { return want[i][1] >= t[1] })
		if i == len(want) || want[i][1] != t[1] {
			return fmt.Errorf("stream %s(%d,_): row %v is not in the reference answer", prog, x, t)
		}
	}
	return nil
}

func checkCommit(resp *service.CommitResponse, version int64, inserted, deleted int) error {
	if resp.Version != version || resp.Inserted != inserted || resp.Deleted != deleted {
		return fmt.Errorf("commit: version %d inserted %d deleted %d, want %d/%d/%d",
			resp.Version, resp.Inserted, resp.Deleted, version, inserted, deleted)
	}
	return nil
}

// keepRefs is how many versions' references a live oracle retains. A read
// answered at version v is checked after its response is read, by when the
// other connection may have sent a commit or two more.
const keepRefs = 8

// oracle holds the mirror and the references reads are checked against.
// Reads at the latest version race with commits, so a commit's reference
// is published before the commit is sent and the ones before it are kept: a
// read is checked at whichever version it was answered at.
type oracle struct {
	mu   sync.Mutex
	m    *mirror
	refs map[int64]*reference
	last int64 // version of the latest commit sent
	// live keeps a reference per commit (mixed reads at the latest version);
	// without it the mirror alone advances and the closure is derived once,
	// at the end.
	live bool
}

func newOracle(universe int, live bool) *oracle {
	return &oracle{m: newMirror(universe), refs: map[int64]*reference{}, live: live}
}

// advance applies a commit about to be sent and returns the version and
// counts the server must answer with.
func (o *oracle) advance(ins, del []edge) (version int64, inserted, deleted int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	inserted, deleted = o.m.apply(ins, del)
	o.last++
	if o.live {
		o.refs[o.last] = o.m.closure(o.last)
		delete(o.refs, o.last-keepRefs)
	}
	return o.last, inserted, deleted
}

// latest is the reference at the last commit sent, deriving it if commits
// were applied without one.
func (o *oracle) latest() *reference {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.refs[o.last] == nil {
		o.refs[o.last] = o.m.closure(o.last)
	}
	return o.refs[o.last]
}

// at is the reference a read that answered at version must match.
func (o *oracle) at(version int64) (*reference, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if r := o.refs[version]; r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("answered at version %d, but the latest commit sent is %d", version, o.last)
}
