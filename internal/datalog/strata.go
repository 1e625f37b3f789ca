package datalog

import "sort"

// IDB dependency analysis for the compiled-rule scheduler and the
// streaming executor (internal/stream). The streaming compiler needs two
// facts the evaluator previously derived only implicitly: which IDB
// predicates a query predicate transitively depends on (so unreachable
// rules are never compiled), and which predicates sit on a dependency cycle
// (a recursive component is handed to the evaluator's fixpoint). Its operator
// tree is built from the query predicate down, so it needs no topological
// schedule.
//
// All results are deterministic: adjacency is sorted.

// idbDeps returns the IDB-to-IDB dependency adjacency of p: an edge
// head -> bodyPred for every IDB body atom. Adjacency lists are sorted and
// deduplicated.
func idbDeps(p *Program) map[string][]string {
	idb := p.IDBs()
	deps := make(map[string]map[string]bool, len(idb))
	for name := range idb {
		deps[name] = map[string]bool{}
	}
	for _, r := range p.Rules {
		for _, a := range r.Atoms() {
			if idb[a.Pred] {
				deps[r.Head.Pred][a.Pred] = true
			}
		}
	}
	out := make(map[string][]string, len(deps))
	for name, set := range deps {
		adj := make([]string, 0, len(set))
		for d := range set {
			adj = append(adj, d)
		}
		sort.Strings(adj)
		out[name] = adj
	}
	return out
}

// ReachableIDBs returns the set of IDB predicates pred transitively
// depends on, including pred itself. Rules whose heads are outside this
// set are irrelevant to answering queries over pred.
func ReachableIDBs(p *Program, pred string) map[string]bool {
	deps := idbDeps(p)
	seen := map[string]bool{}
	var visit func(string)
	visit = func(u string) {
		if seen[u] {
			return
		}
		seen[u] = true
		for _, v := range deps[u] {
			visit(v)
		}
	}
	if _, ok := deps[pred]; ok {
		visit(pred)
	}
	return seen
}

// RecursiveIDBs returns the IDB predicates that lie on a dependency cycle
// (including self-loops). A predicate in the returned set cannot be
// computed by a single streaming pass; anything outside it can.
func RecursiveIDBs(p *Program) map[string]bool {
	deps := idbDeps(p)
	// Tarjan SCC, iterative-enough for our rule counts via recursion.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	out := map[string]bool{}
	var strong func(string)
	strong = func(u string) {
		index[u] = next
		low[u] = next
		next++
		stack = append(stack, u)
		onStack[u] = true
		for _, v := range deps[u] {
			if _, seen := index[v]; !seen {
				strong(v)
				if low[v] < low[u] {
					low[u] = low[v]
				}
			} else if onStack[v] && index[v] < low[u] {
				low[u] = index[v]
			}
		}
		if low[u] == index[u] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == u {
					break
				}
			}
			if len(comp) > 1 {
				for _, w := range comp {
					out[w] = true
				}
			} else {
				// Single-node component: recursive only on a self-loop.
				for _, v := range deps[u] {
					if v == u {
						out[u] = true
					}
				}
			}
		}
	}
	names := make([]string, 0, len(deps))
	for name := range deps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, seen := index[name]; !seen {
			strong(name)
		}
	}
	return out
}
