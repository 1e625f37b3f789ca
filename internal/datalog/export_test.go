package datalog

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
