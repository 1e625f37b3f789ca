package datalog

import (
	"context"
	"sort"
)

// The comparison helpers of the in-package maintenance suites, for
// generated_test.go: it lives in package datalog_test because it plans
// with internal/plan, which imports this package.
var (
	ViewTuples     = viewTuples
	DiffViews      = diffViews
	DeltaStrings   = deltaStrings
	SameStringSets = sameStringSets
	SameIDB        = sameIDB
)

// FireForms evaluates p on db to its fixpoint and then fires every rule
// over the result as written and led by each of its body atoms, the leading
// atom reading its predicate's whole relation. It returns the distinct
// heads each firing emitted, rendered and sorted: written[ri] for rule ri,
// led[ri][ai] for the same rule led by body atom ai.
func FireForms(p *Program, db *Database, opt Options) (written [][]string, led [][][]string, err error) {
	e, err := newEvaluator(context.Background(), p, db, opt)
	if err != nil {
		return nil, nil, err
	}
	if err := e.run(); err != nil {
		return nil, nil, err
	}
	heads := func(cr *cRule, lead []Tuple) []string {
		var out roundOut
		e.fireRule(cr, lead, &out)
		seen := map[string]bool{}
		var hs []string
		for _, h := range out.heads {
			if s := h.String(); !seen[s] {
				seen[s] = true
				hs = append(hs, s)
			}
		}
		sort.Strings(hs)
		return hs
	}
	for ri, cr := range e.rules {
		written = append(written, heads(cr, nil))
		led = append(led, nil)
		for ai, a := range cr.cSrc.atoms {
			rel := e.edb[a.pred]
			if a.idbID >= 0 {
				rel = e.idbByID[a.idbID]
			}
			led[ri] = append(led[ri], heads(e.ledBy(ri, ai), rel.TuplesUnordered()))
		}
	}
	return written, led, nil
}
