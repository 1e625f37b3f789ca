package service

// The service's rewrite cache is an lru.Cache (Service.rewrites); this file
// holds its key.

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

// rewriteEntries bounds the rewrite LRU: one entry per (program,
// predicate, binding pattern) in use.
const rewriteEntries = 64
