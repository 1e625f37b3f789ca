// Package magic implements goal-directed evaluation for the Datalog(≠)
// engine: the adorn-and-rewrite pipeline of the magic-set transformation
// (Bancilhon–Maier–Sagiv–Ullman; Beeri–Ramakrishnan's supplementary
// form), adapted to the paper's dialect — bodies may carry =/≠
// constraints, and head or constraint variables bound by no atom range
// over the whole universe (Section 2 semantics).
//
// The paper's flagship programs (the Theorem 6.1 Q_{k,l} family, the
// Theorem 6.2 disjoint-paths program) are always asked at a goal — "is
// (s, t) in the query?" — yet bottom-up evaluation saturates the entire
// IDB. The pipeline here turns a (program, goal-with-bindings) pair into
// a rewritten program whose semi-naive evaluation derives only facts
// relevant to the goal:
//
//  1. Adornment: starting from the goal's binding pattern (e.g. S^bf for
//     S(0,_)), every reachable IDB predicate is specialized per pattern
//     of bound/free argument positions, with boundness propagated
//     through rule bodies by a pluggable sideways-information-passing
//     (SIP) strategy.
//  2. Rewrite: each adorned rule is guarded by a magic predicate holding
//     the demanded bound-argument tuples; magic rules derive new demand
//     from partially-joined rule prefixes, which are shared through
//     supplementary predicates when a rule demands more than one IDB
//     subgoal.
//  3. Seeding and projection: the goal's bound values seed the goal's
//     magic predicate, the rewritten program runs on the unchanged
//     bottom-up engine (packed keys, indexes, parallel firing,
//     cancellation — nothing in internal/datalog knows about magic), and
//     the adorned goal relation is filtered to the goal bindings.
//
// EvalGoal is the one-call entry point; NewRewrite + Rewrite.Seeded +
// EvalRewritten expose the stages separately. A caller that keeps rewrites
// keyed by (program hash, adornment) — the service does — seeds a cached
// rewrite per goal with Rewrite.Seeded and evaluates the seeded program
// itself: the service streams it through internal/stream.
//
// The pipeline lives outside package datalog so the engine keeps zero
// knowledge of the transformation: magic imports the AST and evaluator,
// never the reverse.
package magic

import (
	"fmt"
	"strings"

	"repro/internal/datalog"
)

// PredKind classifies a predicate of a rewritten program.
type PredKind int

const (
	// KindAnswer marks an adorned copy of a source IDB predicate; its
	// tuples are (a demand-restricted subset of) the source relation.
	KindAnswer PredKind = iota
	// KindMagic marks a demand predicate: its tuples are the bound-part
	// values for which the corresponding adorned predicate is demanded.
	KindMagic
	// KindSupplementary marks a shared rule-prefix join.
	KindSupplementary
)

// String names the kind for stats output.
func (k PredKind) String() string {
	switch k {
	case KindAnswer:
		return "answer"
	case KindMagic:
		return "magic"
	case KindSupplementary:
		return "supplementary"
	}
	return "unknown"
}

// AdornmentOf renders a goal's binding pattern as a 'b'/'f' string, the
// canonical cache-key component for rewrites.
func AdornmentOf(g datalog.Goal) string {
	var b strings.Builder
	for _, bound := range g.Bound {
		if bound {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

// SIP is a sideways-information-passing strategy: it fixes the order in
// which a rule's body atoms are joined, which in turn determines how
// boundness flows into each atom and hence the adornments and magic
// predicates the rewrite emits. Order must return a permutation of
// [0, len(atoms)); bound holds the variables bound before the first atom
// (by the head adornment) and must not be mutated.
type SIP interface {
	// Name identifies the strategy (part of rewrite provenance).
	Name() string
	// Order returns the join order as indexes into atoms.
	Order(atoms []datalog.Atom, bound map[string]bool) []int
}

// BoundFirstSIP is the default strategy: left-to-right with bound-first
// literal reordering. At each step it greedily prefers, in order: fully
// bound atoms (pure filters, EDB before IDB), partially bound EDB atoms,
// partially bound IDB atoms, then unbound EDB and unbound IDB atoms;
// ties break by more bound positions, then original body position. On
// the Theorem 6.1 programs this ordering turns the recursive rules into
// backward searches from the bound endpoints, which is where the
// demand-set shrinkage comes from.
type BoundFirstSIP struct{}

// Name implements SIP.
func (BoundFirstSIP) Name() string { return "bound-first" }

// Order implements SIP with the tiered greedy scheme above.
func (BoundFirstSIP) Order(atoms []datalog.Atom, bound map[string]bool) []int {
	b := make(map[string]bool, len(bound))
	for v := range bound {
		b[v] = true
	}
	remaining := make([]int, len(atoms))
	for i := range remaining {
		remaining[i] = i
	}
	var order []int
	for len(remaining) > 0 {
		best := 0
		bestTier, bestBound := tierOf(atoms[remaining[0]], b)
		for c := 1; c < len(remaining); c++ {
			tier, nb := tierOf(atoms[remaining[c]], b)
			if tier < bestTier || (tier == bestTier && nb > bestBound) {
				best, bestTier, bestBound = c, tier, nb
			}
		}
		ai := remaining[best]
		order = append(order, ai)
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, t := range atoms[ai].Args {
			if t.IsVar() {
				b[t.Var] = true
			}
		}
	}
	return order
}

// tierOf scores one atom under the current bound set; lower tiers are
// joined earlier. The IDB/EDB split is not visible here (Order sees only
// atoms), so the tiers use boundness alone: fully bound (0), some bound
// (1), none bound (2).
func tierOf(a datalog.Atom, bound map[string]bool) (tier, nbound int) {
	for _, t := range a.Args {
		if !t.IsVar() || bound[t.Var] {
			nbound++
		}
	}
	switch {
	case nbound == len(a.Args):
		return 0, nbound
	case nbound > 0:
		return 1, nbound
	default:
		return 2, 0
	}
}

// LeftToRightSIP joins body atoms exactly in the order the rule states
// them — the textbook SIP, kept as the simplest alternative strategy and
// as the reordering ablation in tests and E26.
type LeftToRightSIP struct{}

// Name implements SIP.
func (LeftToRightSIP) Name() string { return "left-to-right" }

// Order implements SIP.
func (LeftToRightSIP) Order(atoms []datalog.Atom, bound map[string]bool) []int {
	order := make([]int, len(atoms))
	for i := range order {
		order[i] = i
	}
	return order
}

// Options configures goal-directed evaluation.
type Options struct {
	// Eval configures the bottom-up engine run on the rewritten program.
	Eval datalog.Options
	// SIP selects the information-passing strategy; nil means
	// BoundFirstSIP.
	SIP SIP
}

// DefaultOptions evaluates rewritten programs with the engine defaults
// (semi-naive, indexed) and the bound-first SIP.
func DefaultOptions() Options { return Options{Eval: datalog.DefaultOptions} }

func (o Options) sip() SIP {
	if o.SIP == nil {
		return BoundFirstSIP{}
	}
	return o.SIP
}

// validateGoal checks a goal against a program: the predicate must be an
// IDB of matching arity and every bound value must lie in [0, n).
func validateGoal(p *datalog.Program, g datalog.Goal, n int) error {
	if !p.IDBs()[g.Pred] {
		return fmt.Errorf("magic: goal predicate %s is not an IDB of the program", g.Pred)
	}
	if ar := p.Arities()[g.Pred]; len(g.Bound) != ar || len(g.Value) != ar {
		return fmt.Errorf("magic: goal for %s has %d positions, predicate has arity %d", g.Pred, len(g.Bound), ar)
	}
	for i, b := range g.Bound {
		if b && (g.Value[i] < 0 || g.Value[i] >= n) {
			return fmt.Errorf("magic: goal binds position %d to %d, outside the universe of size %d", i, g.Value[i], n)
		}
	}
	return nil
}
