package datalog

import "sort"

// viewChunkRows is the row count a view is cut into chunks of. A commit
// copies every chunk its delta lands in plus the chunk directory, so the
// size trades the one against the other. On the end-to-end benchmark's
// state (a 28k-row transitive closure beside two smaller views, four edges
// in and four out per commit) a churn commit allocated 390, 284, 205, 170,
// 162 and 183 KB at 512, 256, 128, 64, 32 and 16 rows, against 922 KB for
// one flat copy of every changed view; 64 is the knee (EXPERIMENTS.md E41).
const viewChunkRows = 64

// View is an immutable, canonically sorted set of same-arity tuples: the
// form a maintained fixpoint is published in. Its rows sit in chunks of flat
// []int, strided by arity and in CompareTuples order, behind a directory of
// chunks. Patch builds the next version by merging a delta into the chunks
// it lands in and sharing every other chunk, by pointer, with the version
// before, so a commit costs by its delta and not by the view. The rows hold
// no pointer: the collector never scans them, and copying them runs no
// write barrier.
//
// A View is never written after it is built, so any number of goroutines
// may read it. The zero value is not usable; NewView builds one.
type View struct {
	arity  int
	n      int
	chunks []viewChunk
}

// viewChunk is one run of consecutive rows. n is kept, not derived from
// len(rows)/arity, because a nullary row takes no ints.
type viewChunk struct {
	rows []int
	n    int
}

// row returns row i as a Tuple header over the chunk's ints, capped so
// that an append to it can only reallocate.
func (c *viewChunk) row(i, arity int) Tuple {
	return Tuple(c.rows[i*arity : (i+1)*arity : (i+1)*arity])
}

// NewView packs a canonically sorted, duplicate-free tuple list of the given
// arity into a view; sorted itself is not kept.
func NewView(arity int, sorted []Tuple) *View {
	v := &View{arity: arity, n: len(sorted)}
	rows := make([]int, 0, len(sorted)*arity)
	for _, t := range sorted {
		rows = append(rows, t...)
	}
	v.chunks = cutChunks(nil, rows, len(sorted), arity)
	return v
}

// cutChunks appends n rows of flat ints to dst as chunks of viewChunkRows
// to twice that less one rows each (all n in one when there are fewer),
// sharing the one backing array; no rows, no chunk.
func cutChunks(dst []viewChunk, rows []int, n, arity int) []viewChunk {
	if n == 0 {
		return dst
	}
	k := max(1, n/viewChunkRows)
	for i, lo := 0, 0; i < k; i++ {
		m := n / k
		if i < n%k {
			m++
		}
		hi := lo + m*arity
		dst = append(dst, viewChunk{rows: rows[lo:hi:hi], n: m})
		lo = hi
	}
	return dst
}

// Len returns the number of rows.
func (v *View) Len() int { return v.n }

// Tuples returns every row in order, each a read-only header over the
// view's own ints: the one read that builds the whole answer.
func (v *View) Tuples() []Tuple {
	out := make([]Tuple, 0, v.n)
	for ci := range v.chunks {
		c := &v.chunks[ci]
		for i := 0; i < c.n; i++ {
			out = append(out, c.row(i, v.arity))
		}
	}
	return out
}

// search returns the first chunk from chunk from on whose last row is
// after t (strict) or not before it, else len(v.chunks).
func (v *View) search(from int, t Tuple, strict bool) int {
	return from + sort.Search(len(v.chunks)-from, func(k int) bool {
		c := &v.chunks[from+k]
		cmp := CompareTuples(c.row(c.n-1, v.arity), t)
		return cmp > 0 || (!strict && cmp == 0)
	})
}

// Has reports whether t is a row: one search of the directory, one of the
// chunk.
func (v *View) Has(t Tuple) bool {
	ci := v.search(0, t, false)
	if ci == len(v.chunks) {
		return false
	}
	c := &v.chunks[ci]
	i := sort.Search(c.n, func(i int) bool { return CompareTuples(c.row(i, v.arity), t) >= 0 })
	return i < c.n && CompareTuples(c.row(i, v.arity), t) == 0
}

// ViewIter walks a view's rows in order; View.After makes one.
type ViewIter struct {
	v    *View
	c, i int // the next row is row i of chunk c
}

// After returns an iterator positioned at the first row strictly after t;
// a nil t positions it at the first row.
func (v *View) After(t Tuple) ViewIter {
	if t == nil {
		return ViewIter{v: v}
	}
	ci := v.search(0, t, true)
	if ci == len(v.chunks) {
		return ViewIter{v: v, c: ci}
	}
	c := &v.chunks[ci]
	i := sort.Search(c.n, func(i int) bool { return CompareTuples(c.row(i, v.arity), t) > 0 })
	return ViewIter{v: v, c: ci, i: i}
}

// Next returns the next row, a read-only header over the view's ints, and
// false once the rows are exhausted.
func (it *ViewIter) Next() (Tuple, bool) {
	if it.c >= len(it.v.chunks) {
		return nil, false
	}
	c := &it.v.chunks[it.c]
	t := c.row(it.i, it.v.arity)
	if it.i++; it.i == c.n {
		it.c, it.i = it.c+1, 0
	}
	return t, true
}

// remaining counts the rows left, up to most: it walks the directory, not
// the rows, and stops once it has counted most.
func (it *ViewIter) remaining(most int) int {
	n := -it.i
	for ci := it.c; ci < len(it.v.chunks) && n < most; ci++ {
		n += it.v.chunks[ci].n
	}
	return min(n, most)
}

// ViewPage returns the rows of v strictly after the tuple after (nil: from
// the first row), at most limit of them (0: all), as rows of the type the
// caller hands on — a Tuple in process, an []int for the JSON wire — so a
// page is built once, in the form it leaves in: one slice of row headers
// over the view's own ints, which are read-only. more reports that rows
// follow the page.
func ViewPage[T ~[]int](v *View, after Tuple, limit int) (page []T, more bool) {
	it := v.After(after)
	most := v.n
	if limit > 0 {
		most = limit + 1
	}
	n := it.remaining(most)
	if limit > 0 && n > limit {
		n, more = limit, true
	}
	page = make([]T, n)
	for k := range page {
		t, _ := it.Next()
		page[k] = T(t)
	}
	return page, more
}

// Patch applies one predicate's net delta — added disjoint from v, removed
// contained in it, both canonically sorted (a MergeDeltas or LastDelta
// entry) — and returns the next version. Each delta tuple lands in the first
// chunk whose last row is not below it (past the last row: the last chunk);
// every chunk a tuple lands in is merged into fresh ints — with the chunks
// after it while the merge holds under half the chunk size, so that chunks
// do not dwindle under churn — cut again once it reaches twice the chunk
// size and dropped once it empties, and every other chunk is shared with v.
// v is never written, and an empty delta returns v itself.
func (v *View) Patch(added, removed []Tuple) *View {
	if len(added) == 0 && len(removed) == 0 {
		return v
	}
	out := &View{arity: v.arity, n: v.n, chunks: make([]viewChunk, 0, len(v.chunks)+1+len(added)/viewChunkRows)}
	if len(v.chunks) == 0 {
		rows, n := v.merge(nil, viewChunk{}, added, removed)
		out.chunks, out.n = cutChunks(out.chunks, rows, n, v.arity), n
		return out
	}
	next := 0 // the first chunk of v not yet carried into out
	for len(added) > 0 || len(removed) > 0 {
		t := added
		if len(removed) > 0 && (len(added) == 0 || CompareTuples(removed[0], added[0]) < 0) {
			t = removed
		}
		ci := min(v.search(next, t[0], false), len(v.chunks)-1)
		out.chunks = append(out.chunks, v.chunks[next:ci]...)
		var rows []int
		n := 0
		for next = ci; next == ci || (n < viewChunkRows/2 && next < len(v.chunks)); next++ {
			na, nr := len(added), len(removed)
			c := &v.chunks[next]
			if next < len(v.chunks)-1 {
				last := c.row(c.n-1, v.arity)
				na = sort.Search(na, func(i int) bool { return CompareTuples(added[i], last) > 0 })
				nr = sort.Search(nr, func(i int) bool { return CompareTuples(removed[i], last) > 0 })
			}
			var m int
			rows, m = v.merge(rows, *c, added[:na], removed[:nr])
			n += m
			out.n += m - c.n
			added, removed = added[na:], removed[nr:]
		}
		out.chunks = cutChunks(out.chunks, rows, n, v.arity)
	}
	out.chunks = append(out.chunks, v.chunks[next:]...)
	return out
}

// merge appends c's rows merged with the delta rows that land in it to
// rows and returns them with the merged row count. Rows are compared as
// Tuple headers over the ints, so nothing is allocated per row. An added
// row already present and a removed row absent are skipped, as a set would.
func (v *View) merge(rows []int, c viewChunk, added, removed []Tuple) ([]int, int) {
	a := v.arity
	if rows == nil {
		rows = make([]int, 0, (c.n+len(added))*a)
	}
	n := 0
	for i := 0; i < c.n || len(added) > 0; {
		if i == c.n || (len(added) > 0 && CompareTuples(added[0], c.row(i, a)) < 0) {
			rows = append(rows, added[0]...)
			added = added[1:]
			n++
			continue
		}
		r := c.row(i, a)
		i++
		for len(removed) > 0 && CompareTuples(removed[0], r) < 0 {
			removed = removed[1:]
		}
		if len(removed) > 0 && CompareTuples(removed[0], r) == 0 {
			removed = removed[1:]
			continue
		}
		if len(added) > 0 && CompareTuples(added[0], r) == 0 {
			added = added[1:]
		}
		rows = append(rows, r...)
		n++
	}
	return rows, n
}
