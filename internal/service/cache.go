package service

import (
	"container/list"
	"sync"

	"repro/internal/datalog"
	"repro/internal/magic"
)

// cacheKey identifies one evaluated query result — a from-scratch
// evaluation or a goal answer; a registered program's view at the
// published version is read in place and never enters the cache: a program
// (by canonical hash, so registered and ad-hoc queries with identical text
// share entries), one of its IDB predicates, and the EDB version the
// result was computed at. Because the version is part of the key a commit
// never makes an entry wrong — it strands entries at old versions, which
// age out of the LRU and are dropped eagerly once their version leaves
// the store's retained history. Goal-directed (bound) queries add the
// canonical binding signature (datalog.Goal.String, e.g. "S(0,_)") so
// their demand-restricted answer sets never alias the full relation;
// unbound queries leave bind empty.
type cacheKey struct {
	hash    string
	pred    string
	version int64
	bind    string
}

type cacheEntry struct {
	key    cacheKey
	tuples []datalog.Tuple // sorted; treated as immutable once cached
}

// resultCache is a mutex-guarded LRU over query results.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	m         map[cacheKey]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{cap: capacity, ll: list.New(), m: map[cacheKey]*list.Element{}}
}

// get returns the cached tuples for k, counting a hit or miss.
func (c *resultCache) get(k cacheKey) ([]datalog.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).tuples, true
}

// put stores tuples under k, evicting the least recently used entry when
// full. Storing an existing key refreshes it.
func (c *resultCache) put(k cacheKey, tuples []datalog.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*cacheEntry).tuples = tuples
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&cacheEntry{key: k, tuples: tuples})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// invalidateBelow drops every entry whose version is older than
// minVersion. The service calls it on commit with the oldest retained
// snapshot version: entries below it can no longer be recomputed and only
// occupy LRU slots.
func (c *resultCache) invalidateBelow(minVersion int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.key.version < minVersion {
			c.ll.Remove(el)
			delete(c.m, e.key)
			c.evictions++
		}
		el = next
	}
}

// counters returns (hits, misses, evictions, live entries).
func (c *resultCache) counters() (int64, int64, int64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.ll.Len()
}

// rewriteKey identifies one magic-set rewrite: the program hash, the
// goal predicate, its adornment, and the SIP strategy the rewrite was
// computed under. No version: a rewrite depends only on the program
// text, never on the EDB, so commits cannot invalidate it.
type rewriteKey struct {
	hash      string
	pred      string
	adornment string
	sip       string
}

type rewriteEntry struct {
	key rewriteKey
	rw  *magic.Rewrite // immutable; shared across concurrent queries
}

// rewriteCache is a mutex-guarded LRU over magic-set rewrites, so
// repeated bound queries against the same program pay the adorn-and-
// rewrite pipeline once per binding pattern.
type rewriteCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List
	m         map[rewriteKey]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

func newRewriteCache(capacity int) *rewriteCache {
	if capacity < 1 {
		capacity = 1
	}
	return &rewriteCache{cap: capacity, ll: list.New(), m: map[rewriteKey]*list.Element{}}
}

func (c *rewriteCache) get(k rewriteKey) (*magic.Rewrite, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*rewriteEntry).rw, true
}

func (c *rewriteCache) put(k rewriteKey, rw *magic.Rewrite) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*rewriteEntry).rw = rw
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&rewriteEntry{key: k, rw: rw})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*rewriteEntry).key)
		c.evictions++
	}
}

// counters returns (hits, misses, evictions, live entries).
func (c *rewriteCache) counters() (int64, int64, int64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.ll.Len()
}
