package service

// The service's two caches are lru.Cache instances (Service.cache,
// Service.rewrites); this file holds their keys.

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
// unbound queries leave bind empty. The cached tuples are sorted and
// treated as immutable.
type cacheKey struct {
	hash    string
	pred    string
	version int64
	bind    string
}

// rewriteKey identifies one magic-set rewrite: the program hash, the
// goal predicate, its adornment, and the SIP strategy the rewrite was
// computed under. No version: a rewrite depends only on the program
// text, never on the EDB, so commits cannot invalidate it. Caching them
// means repeated bound queries against the same program pay the adorn-and-
// rewrite pipeline once per binding pattern; a rewrite is immutable and
// shared across concurrent queries.
type rewriteKey struct {
	hash      string
	pred      string
	adornment string
	sip       string
}

// rewriteCacheEntries bounds the rewrite LRU: one entry per (program,
// predicate, binding pattern) in use.
const rewriteCacheEntries = 64
