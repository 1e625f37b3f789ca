package datalog

// StageTable records, for every tuple of one IDB predicate, the stage Θ^n
// (1-based round) at which the tuple was first derived — the paper's stage
// semantics from Section 2. Internally it keys on the packed tuple
// encoding, so stage recording stays off the string-allocation path.
type StageTable struct {
	rel *Relation // the predicate's fixpoint relation, for iteration
	m   map[tupleKey]int
}

func newStageTable(rel *Relation) *StageTable {
	return &StageTable{rel: rel, m: map[tupleKey]int{}}
}

// set records the first-derivation stage of t (caller guarantees t is new).
func (st *StageTable) set(t Tuple, stage int) { st.m[keyOf(t)] = stage }

// Of returns the first-derivation stage of t and whether t was derived.
func (st *StageTable) Of(t Tuple) (int, bool) {
	s, ok := st.m[keyOf(t)]
	return s, ok
}

// Len returns the number of staged tuples.
func (st *StageTable) Len() int { return len(st.m) }

// Each calls f for every derived tuple with its stage, in arbitrary order,
// stopping early when f returns false.
func (st *StageTable) Each(f func(Tuple, int) bool) {
	st.rel.Each(func(t Tuple) bool { return f(t, st.m[keyOf(t)]) })
}

// StageOf returns the first-derivation stage of a tuple of the named
// predicate; ok is false when the tuple was never derived (or the
// predicate is not an IDB of the program).
func (res *Result) StageOf(pred string, t Tuple) (int, bool) {
	st := res.Stage[pred]
	if st == nil {
		return 0, false
	}
	return st.Of(t)
}

// EachStage iterates over every derived tuple of the named predicate with
// its first-derivation stage, in arbitrary order.
func (res *Result) EachStage(pred string, f func(Tuple, int) bool) {
	if st := res.Stage[pred]; st != nil {
		st.Each(f)
	}
}
