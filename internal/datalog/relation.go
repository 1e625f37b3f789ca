package datalog

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Relation storage. A relation's tuple set and each of its join indexes
// is a table: entries hashed into small buckets behind a directory that
// grows with the entry count. Buckets are the unit of sharing — Clone
// copies only the directories, and a write through either side first
// copies the one bucket it lands in — so a fork costs, and retains,
// memory proportional to what it changes, and indexes travel from version
// to version maintained incrementally instead of being rebuilt.

const (
	// bucketLoad is the mean number of entries per bucket at which a
	// directory grows; a relation no larger than this is one bucket, scanned
	// linearly.
	bucketLoad = 32
	// dirGrowBits is log2 of the directory growth factor (×4), so buckets
	// hold between bucketLoad/4 and bucketLoad entries on average.
	dirGrowBits = 2
	// fibMul is 2^64/φ, the multiplier of Fibonacci hashing.
	fibMul = 0x9E3779B97F4A7C15
)

// ownerTag identifies who may write a bucket in place: a bucket is mutable
// only through the relation currently holding the tag it was made under.
// Tags are compared by address, so the type must not be zero-sized.
type ownerTag struct{ _ byte }

// bucket holds the entries of one directory slot as parallel slices: the
// entry hashes, scanned on lookup, and their values.
type bucket[V any] struct {
	owner *ownerTag
	hs    []uint64
	vals  []V
}

// find returns the position of the first entry at or after from whose hash
// is h, or -1.
func (b *bucket[V]) find(h uint64, from int) int {
	hs := b.hs
	for i := from; i < len(hs); i++ {
		if hs[i] == h {
			return i
		}
	}
	return -1
}

// table is a directory of buckets. Reads never write; every write names
// the owner it writes for and copies a bucket made under another tag
// before touching it.
type table[V any] struct {
	dir   []*bucket[V] // length a power of two; nil slots are empty buckets
	shift uint         // 64 - log2(len(dir))
	n     int          // entries
	// share, when non-nil, is applied to every value copied out of a bucket
	// the writer does not own.
	share func(V) V
}

func newTable[V any](share func(V) V) table[V] {
	return table[V]{dir: make([]*bucket[V], 1), shift: 64, share: share}
}

// slot maps an entry hash to its directory position: the top bits of a
// Fibonacci hash, so growing the directory splits each bucket into
// adjacent ones.
func (t *table[V]) slot(h uint64) uint64 {
	return ((h ^ h>>32) * fibMul) >> t.shift
}

// clone returns a table sharing every bucket with t.
func (t *table[V]) clone() table[V] {
	c := *t
	c.dir = make([]*bucket[V], len(t.dir))
	copy(c.dir, t.dir)
	return c
}

// own returns the bucket at slot writable by o, allocating an empty slot
// and copying a bucket made under another tag.
func (t *table[V]) own(o *ownerTag, slot uint64) *bucket[V] {
	b := t.dir[slot]
	switch {
	case b == nil:
		b = &bucket[V]{owner: o}
	case b.owner != o:
		nb := &bucket[V]{owner: o,
			hs:   make([]uint64, len(b.hs), len(b.hs)+1),
			vals: make([]V, len(b.vals), len(b.vals)+1)}
		copy(nb.hs, b.hs)
		copy(nb.vals, b.vals)
		if t.share != nil {
			for i, v := range nb.vals {
				nb.vals[i] = t.share(v)
			}
		}
		b = nb
	default:
		return b
	}
	t.dir[slot] = b
	return b
}

// insert appends a new entry to the bucket at slot and grows the directory
// once the mean load passes bucketLoad.
func (t *table[V]) insert(o *ownerTag, slot, h uint64, v V) {
	b := t.own(o, slot)
	b.hs = append(b.hs, h)
	b.vals = append(b.vals, v)
	t.n++
	if t.n > bucketLoad*len(t.dir) {
		t.grow(o)
	}
}

// removeAt deletes entry i of b, a bucket own returned.
func (t *table[V]) removeAt(b *bucket[V], i int) {
	last := len(b.hs) - 1
	b.hs[i] = b.hs[last]
	b.hs = b.hs[:last]
	var zero V
	b.vals[i] = b.vals[last]
	b.vals[last] = zero
	b.vals = b.vals[:last]
	t.n--
}

// grow quadruples the directory, redistributing every entry into buckets
// made under o; the old buckets are left as they were.
func (t *table[V]) grow(o *ownerTag) {
	old := t.dir
	t.shift -= dirGrowBits
	t.dir = make([]*bucket[V], len(old)<<dirGrowBits)
	for _, b := range old {
		if b == nil {
			continue
		}
		per := len(b.hs)>>dirGrowBits + 4
		for i, h := range b.hs {
			v := b.vals[i]
			if t.share != nil && b.owner != o {
				v = t.share(v)
			}
			slot := t.slot(h)
			nb := t.dir[slot]
			if nb == nil {
				nb = &bucket[V]{owner: o, hs: make([]uint64, 0, per), vals: make([]V, 0, per)}
				t.dir[slot] = nb
			}
			nb.hs = append(nb.hs, h)
			nb.vals = append(nb.vals, v)
		}
	}
}

// reset empties the table, keeping the directory and the capacity of the
// buckets made under o.
func (t *table[V]) reset(o *ownerTag) {
	for i, b := range t.dir {
		switch {
		case b == nil:
		case b.owner != o:
			t.dir[i] = nil
		default:
			clear(b.vals)
			b.hs, b.vals = b.hs[:0], b.vals[:0]
		}
	}
	t.n = 0
}

// hash is the entry hash of a key. A packed key is its own hash, exact
// within one table (see key.go). A spill key hashes its bytes into the
// range top-three-bits-set, which no packed key occupies — width tag 3
// holds a single element below 2^32 — so only a spill probe can meet a
// colliding entry and has to compare the tuples themselves.
func (k tupleKey) hash() uint64 {
	if k.spill == "" {
		return k.packed
	}
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(k.spill); i++ {
		h = (h ^ uint64(k.spill[i])) * 1099511628211
	}
	return h | 7<<61
}

// index is the hash index of a relation on one column mask: the tuples
// grouped by their projection on the masked columns.
type index struct {
	mask uint64
	t    table[[]Tuple]
}

// clipList makes a tuple list copied out of a foreign bucket safe to hold
// beside the original: with no spare capacity, an append can only
// reallocate. Together with remove's rule — swap-delete in place only
// where cap > len, which inside an owned bucket only a list allocated
// under the current tag can have — no write reaches a backing array
// another version can see.
func clipList(l []Tuple) []Tuple { return l[:len(l):len(l)] }

func newIndex(mask uint64) *index {
	return &index{mask: mask, t: newTable(clipList)}
}

// entry locates the list of tuples agreeing with t on the masked columns.
func (ix *index) entry(t Tuple) (slot, h uint64, i int) {
	pk := keyProjected(t, ix.mask)
	h = pk.hash()
	slot = ix.t.slot(h)
	b := ix.t.dir[slot]
	if b == nil {
		return slot, h, -1
	}
	for i = b.find(h, 0); i >= 0; i = b.find(h, i+1) {
		if pk.spill == "" || sameColumns(b.vals[i][0], t, ix.mask) {
			return slot, h, i
		}
	}
	return slot, h, -1
}

func sameColumns(a, b Tuple, mask uint64) bool {
	for i := range a {
		if mask&(1<<uint(i)) != 0 && a[i] != b[i] {
			return false
		}
	}
	return true
}

// matches returns the tuples agreeing with pattern on the masked columns.
func (ix *index) matches(pattern Tuple) []Tuple {
	slot, _, i := ix.entry(pattern)
	if i < 0 {
		return nil
	}
	return ix.t.dir[slot].vals[i]
}

// add files a tuple newly added to the relation.
func (ix *index) add(o *ownerTag, t Tuple) {
	slot, h, i := ix.entry(t)
	if i < 0 {
		ix.t.insert(o, slot, h, []Tuple{t})
		return
	}
	b := ix.t.own(o, slot)
	b.vals[i] = append(b.vals[i], t)
}

// remove unfiles stored, the relation's own copy of a tuple being removed.
func (ix *index) remove(o *ownerTag, stored Tuple) {
	slot, _, i := ix.entry(stored)
	if i < 0 {
		return
	}
	b := ix.t.own(o, slot)
	list := b.vals[i]
	if len(list) == 1 {
		ix.t.removeAt(b, i)
		return
	}
	j := 0
	for &list[j][0] != &stored[0] { // indexes hold the set's own tuples
		j++
	}
	last := len(list) - 1
	if cap(list) == len(list) {
		// Possibly shared with another version (see clipList): rebuild.
		nl := make([]Tuple, last, len(list))
		copy(nl, list[:j])
		copy(nl[j:], list[j+1:])
		b.vals[i] = nl
		return
	}
	list[j] = list[last]
	list[last] = nil
	list = list[:last]
	if len(list) < cap(list)/4 {
		// Give capacity back: a list that only swap-deletes and appends
		// keeps its historical maximum, which churn keeps raising. The
		// fresh list is this version's own, as clipList wants.
		list = append(make([]Tuple, 0, 2*len(list)), list...)
	}
	b.vals[i] = list
}

// Relation is a set of same-arity tuples with optional join indexes,
// stored as structurally shared tables keyed on the packed integer
// encoding of key.go, so membership tests and index probes allocate
// nothing. Indexes are persistent: once registered (by EnsureIndex or a
// first probe) they are maintained by every Add and Remove and carried
// into every Clone, never rebuilt.
//
// A relation nobody writes any more — a published snapshot — may be read,
// probed on a mask it has no index for yet, and cloned from any number of
// goroutines: a missing index is built once under the relation's lock and
// published atomically. Add, Remove and reset must not race with anything;
// the evaluator only mutates relations between parallel firing phases.
type Relation struct {
	Arity int
	owner atomic.Pointer[ownerTag]
	set   table[Tuple]
	idx   atomic.Pointer[[]*index] // immutable once stored
	mu    sync.Mutex               // serializes index builds
	// builds, when non-nil, counts the index builds on this relation and its
	// clones; see Database.CountIndexBuilds.
	builds *atomic.Int64
}

// NewDLRelation returns an empty relation.
func NewDLRelation(arity int) *Relation {
	r := &Relation{Arity: arity, set: newTable[Tuple](nil)}
	r.owner.Store(new(ownerTag))
	return r
}

// indexes returns the registered indexes.
func (r *Relation) indexes() []*index {
	if p := r.idx.Load(); p != nil {
		return *p
	}
	return nil
}

// Add inserts a tuple and reports whether it was new.
func (r *Relation) Add(t Tuple) bool {
	_, _, isNew := r.add(t, false)
	return isNew
}

// find locates the tuple with key k, hashed to h.
func (r *Relation) find(k tupleKey, h uint64) (slot uint64, i int) {
	slot = r.set.slot(h)
	b := r.set.dir[slot]
	if b == nil {
		return slot, -1
	}
	for i = b.find(h, 0); i >= 0; i = b.find(h, i+1) {
		if k.spill == "" || keyOf(b.vals[i]).spill == k.spill {
			return slot, i
		}
	}
	return slot, -1
}

// add is Add, additionally returning the relation's own copy of the tuple
// and its canonical key, which the commit path reuses for stage and
// witness bookkeeping. With own the caller gives t away: a new tuple is
// stored as it is instead of copied.
func (r *Relation) add(t Tuple, own bool) (Tuple, tupleKey, bool) {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("datalog: arity mismatch: tuple %v in relation of arity %d", t, r.Arity))
	}
	k := keyOf(t)
	h := k.hash()
	slot, i := r.find(k, h)
	if i >= 0 {
		return r.set.dir[slot].vals[i], k, false
	}
	cp := t
	if !own {
		cp = make(Tuple, len(t))
		copy(cp, t)
	}
	o := r.owner.Load()
	r.set.insert(o, slot, h, cp)
	for _, ix := range r.indexes() {
		ix.add(o, cp)
	}
	return cp, k, true
}

// Remove deletes a tuple, maintaining every registered index, and reports
// whether it was present.
func (r *Relation) Remove(t Tuple) bool {
	k := keyOf(t)
	slot, i := r.find(k, k.hash())
	if i < 0 {
		return false
	}
	o := r.owner.Load()
	b := r.set.own(o, slot)
	stored := b.vals[i]
	r.set.removeAt(b, i)
	for _, ix := range r.indexes() {
		ix.remove(o, stored)
	}
	return true
}

// get returns the stored tuple with key k, or nil.
func (r *Relation) get(k tupleKey) Tuple {
	slot, i := r.find(k, k.hash())
	if i < 0 {
		return nil
	}
	return r.set.dir[slot].vals[i]
}

// Clone returns a relation with the same tuples and indexes that shares
// all of their storage with r: only the directories are copied, and from
// here on a write through either relation first copies the bucket it
// lands in, so neither ever sees the other's changes.
func (r *Relation) Clone() *Relation {
	// Every existing bucket carries the tag r held until now; with both
	// sides on fresh tags, neither may write one in place.
	r.owner.Store(new(ownerTag))
	nr := &Relation{Arity: r.Arity, set: r.set.clone(), builds: r.builds}
	nr.owner.Store(new(ownerTag))
	if ixs := r.indexes(); len(ixs) > 0 {
		cp := make([]*index, len(ixs))
		for i, ix := range ixs {
			cp[i] = &index{mask: ix.mask, t: ix.t.clone()}
		}
		nr.idx.Store(&cp)
	}
	return nr
}

// Has reports membership.
func (r *Relation) Has(t Tuple) bool {
	k := keyOf(t)
	_, i := r.find(k, k.hash())
	return i >= 0
}

// Size returns the number of tuples.
func (r *Relation) Size() int { return r.set.n }

// Tuples returns all tuples sorted in the canonical CompareTuples order.
func (r *Relation) Tuples() []Tuple {
	out := r.TuplesUnordered()
	sortTuples(out)
	return out
}

// TuplesUnordered returns the tuples in a fresh slice, in storage order.
func (r *Relation) TuplesUnordered() []Tuple {
	out := make([]Tuple, 0, r.set.n)
	for _, b := range r.set.dir {
		if b != nil {
			out = append(out, b.vals...)
		}
	}
	return out
}

// Each calls f on every tuple in storage order — a function of the
// relation's history, not random — without copying anything, stopping
// early when f returns false. f may add to the relation (it may or may not
// be shown the additions) but must not remove from it.
func (r *Relation) Each(f func(Tuple) bool) {
	for _, b := range r.set.dir {
		if b == nil {
			continue
		}
		for _, t := range b.vals {
			if !f(t) {
				return
			}
		}
	}
}

// Cursor is a resumable Each: an in-place scan a pull-based consumer
// advances one tuple at a time. The relation must not be mutated while a
// cursor over it is in use.
type Cursor struct {
	dir  []*bucket[Tuple]
	b, i int
}

// Cursor returns a scan positioned before the first tuple.
func (r *Relation) Cursor() Cursor { return Cursor{dir: r.set.dir} }

// Next returns the next tuple, or false once the scan is exhausted.
func (c *Cursor) Next() (Tuple, bool) {
	for c.b < len(c.dir) {
		if b := c.dir[c.b]; b != nil && c.i < len(b.vals) {
			c.i++
			return b.vals[c.i-1], true
		}
		c.b++
		c.i = 0
	}
	return nil, false
}

// index returns the registered index on mask, or nil.
func (r *Relation) index(mask uint64) *index {
	for _, ix := range r.indexes() {
		if ix.mask == mask {
			return ix
		}
	}
	return nil
}

// ensureIndex returns the hash index on the given column mask, building
// and registering it first if the relation has none: once, under the
// relation's lock, published with one atomic store, so concurrent readers
// of a published relation either find it whole or wait for it.
func (r *Relation) ensureIndex(mask uint64) *index {
	if ix := r.index(mask); ix != nil {
		return ix
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.index(mask); ix != nil {
		return ix
	}
	ix := newIndex(mask)
	o := r.owner.Load()
	r.Each(func(t Tuple) bool {
		ix.add(o, t)
		return true
	})
	old := r.indexes()
	ixs := append(make([]*index, 0, len(old)+1), old...)
	ixs = append(ixs, ix)
	r.idx.Store(&ixs)
	if r.builds != nil {
		r.builds.Add(1)
	}
	return ix
}

// reset empties the relation in place, keeping the registered index masks
// and, where the storage is the relation's own, its capacity. Incremental
// uses it to recycle a delete run's set of over-deleted tuples.
func (r *Relation) reset() {
	o := r.owner.Load()
	r.set.reset(o)
	for _, ix := range r.indexes() {
		ix.t.reset(o)
	}
}

// EnsureIndex registers and builds the hash index on the given column mask
// if absent; Adds and Removes maintain it from then on and clones inherit
// it. Probing through Matches does the same on first use, so calling this
// is only a way to pay for the build early. mask 0 is a no-op.
func (r *Relation) EnsureIndex(mask uint64) {
	if mask != 0 {
		r.ensureIndex(mask)
	}
}

// Matches returns the tuples whose positions selected by mask equal the
// corresponding positions of pattern: an indexed probe, the index built on
// first use. The returned slice aliases index storage and must not be
// mutated. mask == 0 matches everything and copies the relation; scan
// with Each or a Cursor instead.
func (r *Relation) Matches(pattern Tuple, mask uint64) []Tuple {
	if mask == 0 {
		return r.TuplesUnordered()
	}
	return r.ensureIndex(mask).matches(pattern)
}
