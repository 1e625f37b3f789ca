package datalog

// StageTable records, for every tuple of one IDB predicate, the stage Θ^n
// (1-based round) at which the tuple was first derived — the paper's stage
// semantics from Section 2. It is a view of the predicate's rows in the
// evaluation's witness table, which holds exactly the relation's tuples.
type StageTable struct {
	rel *Relation // the predicate's fixpoint relation, for iteration
	wit *witnessStore
	tab int // the predicate's table in wit
}

// Of returns the first-derivation stage of t and whether t was derived.
func (st *StageTable) Of(t Tuple) (int, bool) {
	r := st.wit.find(st.tab, keyOf(t), t)
	if r == 0 {
		return 0, false
	}
	return int(st.wit.rows[r].stage), true
}

// Len returns the number of staged tuples.
func (st *StageTable) Len() int { return st.rel.Size() }

// Each calls f for every derived tuple with its stage, in arbitrary order,
// stopping early when f returns false.
func (st *StageTable) Each(f func(Tuple, int) bool) {
	st.rel.Each(func(t Tuple) bool {
		s, _ := st.Of(t)
		return f(t, s)
	})
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
