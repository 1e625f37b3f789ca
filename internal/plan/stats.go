// Package plan is the cost-based join planner: per-relation statistics
// (stats.go), a greedy/exhaustive join orderer over those statistics
// (planner.go), a containment-based pre-pass that drops subsumed rules
// and redundant body atoms (prune.go), and an LRU cache of finished
// plans keyed by (program hash, stats epoch, strategy) (planner.go).
//
// The planner plugs into evaluation through datalog.Options.Planner: it
// only permutes body atoms and prunes provably redundant rules, both of
// which preserve the least fixpoint, the per-tuple first stages and the
// round count — so every engine path (Eval, incremental maintenance,
// magic-set rewrites) can be planned without changing its answers. What
// changes is the probe order the compiled join loop executes, which is
// where adversarially ordered rule bodies pay cross-product blowups.
package plan

import (
	"hash/fnv"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/datalog"
)

// RelStats summarizes one relation for the cost model: total rows plus
// per-column distinct-value counts. 1/Distinct[i] is the estimated
// selectivity of fixing column i to a constant or an already-bound
// variable.
type RelStats struct {
	Name     string
	Arity    int
	Rows     int
	Distinct []int
	// occ[i][x] counts the rows holding x in column i: what lets Advance
	// move Distinct by a batch instead of a rescan. Only the newest entry of
	// a relation's chain has it — Advance hands the maps on to the entry it
	// derives — and nothing but Advance reads it.
	occ []map[int]int
}

// Catalog is an immutable snapshot of statistics for every relation of
// one database version. Immutability is the point: a catalog can be
// shared by concurrent planners, and Refresh and Advance produce the next
// version reusing the per-relation entries of untouched relations.
type Catalog struct {
	rels        map[string]*RelStats
	defaultRows int

	fpOnce sync.Once
	fp     uint64
}

// Collect scans every relation of db into a fresh catalog. Cost is one
// pass over every tuple; the service instead maintains its catalog
// incrementally with Advance at each commit.
func Collect(db *datalog.Database) *Catalog {
	c := &Catalog{rels: map[string]*RelStats{}}
	if db != nil {
		for _, name := range db.Names() {
			c.rels[name] = collectRel(name, db.Relation(name))
		}
	}
	c.finish()
	return c
}

// Refresh returns the catalog for the next database version: the named
// relations are rescanned, everything else is shared with the receiver.
func (c *Catalog) Refresh(db *datalog.Database, names ...string) *Catalog {
	next := &Catalog{rels: make(map[string]*RelStats, len(c.rels)+len(names))}
	for k, v := range c.rels {
		next.rels[k] = v
	}
	for _, name := range names {
		if r := db.Relation(name); r != nil {
			next.rels[name] = collectRel(name, r)
		} else {
			delete(next.rels, name)
		}
	}
	next.finish()
	return next
}

// Advance returns the catalog for the database version db, reached from
// the receiver's by taking out the facts in removed and then putting in the
// facts in added — each exactly a fact that was there and went, or was not
// and came. A touched relation's entry is derived from the previous one and
// its share of the batch, so the cost follows the batch, not the relation;
// an entry that cannot be moved that way — a relation new to the catalog,
// or one whose column counts went to a catalog derived earlier (a version
// built and then dropped) — is rescanned from db. Everything else is shared
// with the receiver. Like the commits it follows, Advance must not run
// concurrently with another Advance of the same chain of catalogs.
func (c *Catalog) Advance(db *datalog.Database, removed, added []datalog.Fact) *Catalog {
	next := &Catalog{rels: make(map[string]*RelStats, len(c.rels)+1)}
	for k, v := range c.rels {
		next.rels[k] = v
	}
	// moved holds the entry being advanced of every relation the batch
	// touches, nil for one that has to be rescanned.
	moved := map[string]*RelStats{}
	entry := func(name string) *RelStats {
		st, seen := moved[name]
		if !seen {
			if prev := c.rels[name]; prev != nil && prev.occ != nil {
				st = &RelStats{Name: name, Arity: prev.Arity, Rows: prev.Rows,
					Distinct: append([]int(nil), prev.Distinct...), occ: prev.occ}
				prev.occ = nil
				next.rels[name] = st
			}
			moved[name] = st
		}
		return st
	}
	for _, f := range removed {
		if st := entry(f.Pred); st != nil {
			st.Rows--
			for i, x := range f.Tuple {
				if st.occ[i][x]--; st.occ[i][x] == 0 {
					delete(st.occ[i], x)
					st.Distinct[i]--
				}
			}
		}
	}
	for _, f := range added {
		if st := entry(f.Pred); st != nil {
			st.Rows++
			for i, x := range f.Tuple {
				if st.occ[i][x]++; st.occ[i][x] == 1 {
					st.Distinct[i]++
				}
			}
		}
	}
	for name, st := range moved {
		if st != nil {
			continue
		}
		if r := db.Relation(name); r != nil {
			next.rels[name] = collectRel(name, r)
		} else {
			delete(next.rels, name)
		}
	}
	next.finish()
	return next
}

func collectRel(name string, r *datalog.Relation) *RelStats {
	st := &RelStats{Name: name, Arity: r.Arity, Rows: r.Size(), Distinct: make([]int, r.Arity),
		occ: make([]map[int]int, r.Arity)}
	for i := range st.occ {
		st.occ[i] = make(map[int]int)
	}
	r.Each(func(t datalog.Tuple) bool {
		for i, x := range t {
			st.occ[i][x]++
		}
		return true
	})
	for i := range st.occ {
		st.Distinct[i] = len(st.occ[i])
	}
	return st
}

// finish derives the catalog-wide fallback row count used for predicates
// without statistics (IDB predicates mid-derivation, unknown EDBs): the
// largest known relation, floored at 1 so selectivities stay finite.
func (c *Catalog) finish() {
	c.defaultRows = 1
	for _, st := range c.rels {
		if st.Rows > c.defaultRows {
			c.defaultRows = st.Rows
		}
	}
}

// Rel returns the statistics for one relation.
func (c *Catalog) Rel(name string) (*RelStats, bool) {
	st, ok := c.rels[name]
	return st, ok
}

// DefaultRows is the row estimate for predicates the catalog knows
// nothing about.
func (c *Catalog) DefaultRows() int { return c.defaultRows }

// Len is the number of relations with statistics.
func (c *Catalog) Len() int { return len(c.rels) }

// Names returns the cataloged relation names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.rels))
	for name := range c.rels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// bucket maps a count to its log2 bucket (0, 1, 2, 4, 8, ... share a
// bucket with their neighbors): the fingerprint granularity.
func bucket(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(bits.Len(uint(n)))
}

// Fingerprint is the catalog's stats epoch: an FNV-64a hash over every
// relation's name, log2-bucketed row count and log2-bucketed per-column
// distinct counts. Bucketing makes the epoch — and therefore the plan
// cache — stable across commits that change cardinalities by less than
// a factor of two: such changes cannot move a cost estimate enough to
// warrant replanning, so cached plans keep hitting.
func (c *Catalog) Fingerprint() uint64 {
	c.fpOnce.Do(func() {
		h := fnv.New64a()
		var buf [8]byte
		writeU64 := func(v uint64) {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		for _, name := range c.Names() {
			h.Write([]byte(name))
			h.Write([]byte{0})
			st := c.rels[name]
			writeU64(bucket(st.Rows))
			for _, d := range st.Distinct {
				writeU64(bucket(d))
			}
		}
		c.fp = h.Sum64()
	})
	return c.fp
}
