package datalog

import (
	"math"
	"slices"
)

// The witness table. Every derived tuple has a row holding the stage Θ^n
// at which it first appeared and — with Options.TrackProvenance — the
// rule application that produced it then: its first-derivation witness.
// The rows of all predicates live in one arena so that a reference to a
// fact is a single uint32 whatever predicate it belongs to; each predicate
// has its own hash index from packed tuple key to row. Nothing in the
// table is a pointer (spill-key tuples aside), so the garbage collector
// never scans it, and a row with its share of the index and of the
// reference arena costs well under a hundred bytes, a quarter of what a map
// from tuple key to a heap-allocated derivation did.
//
// A witness cites its body facts by reference: the block refs[body:body+n]
// of the flat reference arena has one entry per body atom of the rule, in
// body order, naming the cited fact's row. IDB facts are cited by the row
// they already have; an EDB fact gets a (witness-less) row the first time
// a witness cites it, in a table of its predicate. Every reference is also
// linked, through next/prev, into the use-list of the fact it cites: the
// list rooted at that fact's row of all references to it, each naming the
// head whose witness it belongs to. The use-lists are the
// reverse-dependency edges delete maintenance follows: the heads that
// must be over-deleted when a fact goes are exactly the heads of the
// references on its use-list (see Incremental.DeleteContext).
//
// Row and reference 0 are never allocated, so 0 means "no row" and ends a
// use-list. Freed rows and reference blocks are recycled through free
// lists — blocks per body length, so a stationary workload neither grows
// nor fragments the arenas.
type witnessStore struct {
	prov bool // record witnesses; false records stages only
	rows []witRow
	refs []witRef
	// wide holds the tuples of rows whose key is a spill key, at the row's
	// position; it is nil until the first such tuple arrives.
	wide []Tuple
	// tabs has one table per predicate: the IDB predicates at their dense
	// ids, then the program's EDB predicates in name order.
	tabs  []witTable
	tabID map[string]int
	// ruleHead and ruleBody give, per rule, the table of the head and of
	// each body atom in body order: what a row's rule index and a
	// reference's position in its block resolve to.
	ruleHead []int32
	ruleBody [][]int32

	freeRow  uint32   // head of the free-row list, linked through uses
	freeRefs []uint32 // per block length: head of the free-block list, linked through next
}

// witRow is one fact: its identity (key), the head of its use-list, and
// for an IDB fact its stage and witness.
type witRow struct {
	// key is the entry hash of the tuple's canonical key (tupleKey.hash): a
	// packed key is its own hash, so the tuple can be read back from it; a
	// spill key's hash has its top three bits set and the tuple is in wide.
	key   uint64
	uses  uint32 // first reference citing this fact, 0 for none
	stage uint32 // IDB rows: the first-derivation stage; deadStage while being over-deleted
	body  uint32 // IDB rows with a witness: its first reference, 0 for an empty body
	// rule is the index of the witness's rule for an IDB row, so the row's
	// table is the rule's head predicate; an EDB row holds the complement of
	// its table id, which is negative; a free row holds freeRule.
	rule int32
}

// witRef is one body reference of one witness, and one link of the
// use-list of the fact it cites.
type witRef struct {
	target     uint32 // the cited fact's row
	head       uint32 // the row whose witness this reference belongs to
	next, prev uint32 // neighbours on target's use-list; prev 0 means first
}

const (
	// maxStage caps recorded stages: rounds count up for the lifetime of a
	// maintained view, and the column is 32 bits wide. Only the reported
	// stage numbers saturate; maintenance follows use-lists, not stages.
	maxStage  = math.MaxUint32 - 1
	deadStage = math.MaxUint32
	freeRule  = math.MinInt32
)

// witTable is one predicate's index into the row arena: open addressing
// with linear probing over row ids, 0 for an empty slot.
type witTable struct {
	name  string
	arity int
	slots []uint32
	shift uint // 64 - log2(len(slots))
	n     int
}

func newWitnessStore(prov bool, idbNames, edbNames []string, arity map[string]int) *witnessStore {
	w := &witnessStore{prov: prov, rows: make([]witRow, 1), tabID: map[string]int{}}
	if prov {
		w.refs = make([]witRef, 1)
	}
	for _, names := range [][]string{idbNames, edbNames} {
		for _, name := range names {
			w.tabID[name] = len(w.tabs)
			w.tabs = append(w.tabs, witTable{name: name, arity: arity[name], slots: make([]uint32, 8), shift: 61})
		}
	}
	return w
}

// setRules records the head and body tables of the compiled program.
func (w *witnessStore) setRules(rules []*cRule) {
	w.ruleHead = make([]int32, len(rules))
	w.ruleBody = make([][]int32, len(rules))
	maxBody := 0
	for ri, cr := range rules {
		w.ruleHead[ri] = int32(cr.headID)
		w.ruleBody[ri] = make([]int32, len(cr.cSrc.atoms))
		for ai, a := range cr.cSrc.atoms {
			w.ruleBody[ri][ai] = int32(a.tab)
		}
		maxBody = max(maxBody, len(cr.cSrc.atoms))
	}
	w.freeRefs = make([]uint32, maxBody+1)
}

func (tb *witTable) slot(h uint64) uint64 {
	return ((h ^ h>>32) * fibMul) >> tb.shift
}

// find returns the row of tuple t (whose key is k) in table tab, or 0.
func (w *witnessStore) find(tab int, k tupleKey, t Tuple) uint32 {
	tb := &w.tabs[tab]
	h := k.hash()
	mask := uint64(len(tb.slots) - 1)
	for i := tb.slot(h); ; i = (i + 1) & mask {
		r := tb.slots[i]
		if r == 0 {
			return 0
		}
		if w.rows[r].key == h && (k.spill == "" || slices.Equal(w.wide[r], t)) {
			return r
		}
	}
}

// insert allocates a row for a tuple find did not find and indexes it.
// stored must stay valid and unwritten for as long as the row lives; only
// a spill-key tuple is retained.
func (w *witnessStore) insert(tab int, k tupleKey, stored Tuple, rule int32) uint32 {
	r := w.freeRow
	if r != 0 {
		w.freeRow = w.rows[r].uses
	} else {
		r = uint32(len(w.rows))
		w.rows = append(w.rows, witRow{})
		if w.wide != nil {
			w.wide = append(w.wide, nil)
		}
	}
	w.rows[r] = witRow{key: k.hash(), rule: rule}
	if k.spill != "" {
		if w.wide == nil {
			w.wide = make([]Tuple, len(w.rows))
		}
		w.wide[r] = stored
	}
	tb := &w.tabs[tab]
	if 4*(tb.n+1) > 3*len(tb.slots) {
		w.growTable(tb)
	}
	tb.place(w.rows[r].key, r)
	tb.n++
	return r
}

// place files row r, hashed to h, in the first empty slot of its probe run.
func (tb *witTable) place(h uint64, r uint32) {
	mask := uint64(len(tb.slots) - 1)
	i := tb.slot(h)
	for tb.slots[i] != 0 {
		i = (i + 1) & mask
	}
	tb.slots[i] = r
}

func (w *witnessStore) growTable(tb *witTable) {
	old := tb.slots
	tb.slots = make([]uint32, 2*len(old))
	tb.shift--
	for _, r := range old {
		if r != 0 {
			tb.place(w.rows[r].key, r)
		}
	}
}

// tabOf returns the table a live row belongs to.
func (w *witnessStore) tabOf(r uint32) int {
	rule := w.rows[r].rule
	if rule >= 0 {
		return int(w.ruleHead[rule])
	}
	return int(^rule)
}

// bodyLen returns the number of references in row r's witness.
func (w *witnessStore) bodyLen(r uint32) int {
	if rule := w.rows[r].rule; rule >= 0 && w.prov {
		return len(w.ruleBody[rule])
	}
	return 0
}

// tupleOf reads row r's tuple back into a fresh tuple: unpacked from the
// key, or copied from the retained spill-key tuple.
func (w *witnessStore) tupleOf(r uint32) Tuple {
	if w.wide != nil && w.wide[r] != nil {
		return append(Tuple(nil), w.wide[r]...)
	}
	return unpackKey(w.rows[r].key, w.tabs[w.tabOf(r)].arity)
}

// keyOfRow returns the canonical key of row r's tuple.
func (w *witnessStore) keyOfRow(r uint32) tupleKey {
	if w.wide != nil && w.wide[r] != nil {
		return keyOf(w.wide[r])
	}
	return tupleKey{packed: w.rows[r].key}
}

// record files a tuple newly added to IDB predicate cr.headID: its stage
// and, when witnesses are kept, the rule application that derived it. body
// holds the matched tuples of cr's recorded atoms in cr's atom order;
// every IDB fact among them already has its row, an EDB fact is given one
// on first citation.
func (w *witnessStore) record(cr *cRule, k tupleKey, stored Tuple, stage int, body []Tuple) {
	row := w.insert(cr.headID, k, stored, int32(cr.ri))
	w.rows[row].stage = uint32(min(stage, maxStage))
	if !w.prov || len(body) == 0 {
		return
	}
	base := w.newRefs(len(body))
	w.rows[row].body = base
	for i, bt := range body {
		ai := cr.skip + i
		tab := cr.atoms[ai].tab
		bk := keyOf(bt)
		tgt := w.find(tab, bk, bt)
		if tgt == 0 {
			if cr.atoms[ai].idbID >= 0 {
				panic("datalog: witness of " + w.tabs[cr.headID].name + stored.String() +
					" cites underived fact " + w.tabs[tab].name + bt.String())
			}
			tgt = w.insert(tab, bk, bt, int32(^tab))
		}
		r := base + uint32(cr.from(ai))
		first := w.rows[tgt].uses
		w.refs[r] = witRef{target: tgt, head: row, next: first}
		if first != 0 {
			w.refs[first].prev = r
		}
		w.rows[tgt].uses = r
	}
}

// newRefs returns a block of n references, recycled when one is free.
func (w *witnessStore) newRefs(n int) uint32 {
	if base := w.freeRefs[n]; base != 0 {
		w.freeRefs[n] = w.refs[base].next
		return base
	}
	base := uint32(len(w.refs))
	for i := 0; i < n; i++ {
		w.refs = append(w.refs, witRef{})
	}
	return base
}

// release frees row r: its references leave the use-lists of the facts
// they cite — except facts themselves marked dead, whose lists go with
// them — and the row and its block return to the free lists. Whatever is
// still on r's own use-list is dropped with it, so the caller releases
// those heads too.
func (w *witnessStore) release(r uint32) {
	tab := w.tabOf(r)
	if n := w.bodyLen(r); n > 0 {
		base := w.rows[r].body
		for ref := base; ref < base+uint32(n); ref++ {
			rf := w.refs[ref]
			if w.rows[rf.target].stage == deadStage {
				continue
			}
			if rf.prev != 0 {
				w.refs[rf.prev].next = rf.next
			} else {
				w.rows[rf.target].uses = rf.next
			}
			if rf.next != 0 {
				w.refs[rf.next].prev = rf.prev
			}
		}
		w.refs[base].next = w.freeRefs[n]
		w.freeRefs[n] = base
	}
	w.unindex(&w.tabs[tab], r)
	if w.wide != nil {
		w.wide[r] = nil
	}
	w.rows[r] = witRow{stage: deadStage, rule: freeRule, uses: w.freeRow}
	w.freeRow = r
}

// unindex removes row r from tb's slots, closing the gap by moving back
// every later entry of the probe run that may sit in it.
func (w *witnessStore) unindex(tb *witTable, r uint32) {
	mask := uint64(len(tb.slots) - 1)
	i := tb.slot(w.rows[r].key)
	for tb.slots[i] != r {
		i = (i + 1) & mask
	}
	tb.n--
	for j := i; ; {
		tb.slots[i] = 0
		for {
			j = (j + 1) & mask
			mv := tb.slots[j]
			if mv == 0 {
				return
			}
			// mv may move into the gap at i unless its home slot lies
			// cyclically within (i, j].
			home := tb.slot(w.rows[mv].key)
			if (j-home)&mask < (j-i)&mask {
				continue
			}
			tb.slots[i] = mv
			i = j
			break
		}
	}
}

// derivation materialises row r's witness, or nil when none is recorded.
func (w *witnessStore) derivation(r uint32) *Derivation {
	rw := w.rows[r]
	if !w.prov || rw.rule < 0 {
		return nil
	}
	body := w.ruleBody[rw.rule]
	d := &Derivation{Rule: int(rw.rule), Body: make([]Fact, 0, len(body))}
	for i, tab := range body {
		tgt := w.refs[rw.body+uint32(i)].target
		d.Body = append(d.Body, Fact{Pred: w.tabs[tab].name, Tuple: w.tupleOf(tgt)})
	}
	return d
}
