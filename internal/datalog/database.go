package datalog

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/structure"
)

// Tuple is a row of universe elements.
type Tuple []int

// String renders (1,2,3).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	b.WriteByte(')')
	return b.String()
}

// CompareTuples is the canonical tuple order: lexicographic by components.
// It returns -1, 0, or +1. This is the order Tuples() sorts into, the order
// /v1/query responses are serialized in, and the order pagination cursors
// are compared against — every sorted tuple slice in the system must agree
// with it.
func CompareTuples(a, b Tuple) int {
	for k := range a {
		if k >= len(b) {
			return 1
		}
		if a[k] != b[k] {
			if a[k] < b[k] {
				return -1
			}
			return 1
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// Database is an EDB instance: a universe {0..N-1} plus named relations.
type Database struct {
	N    int
	rels map[string]*Relation
	// builds, when non-nil, counts index builds; see CountIndexBuilds.
	builds *atomic.Int64
}

// NewDatabase returns an empty database over an n-element universe.
func NewDatabase(n int) *Database {
	return &Database{N: n, rels: map[string]*Relation{}}
}

// EnsureRelation creates the named relation if absent and returns it.
func (db *Database) EnsureRelation(name string, arity int) *Relation {
	if r, ok := db.rels[name]; ok {
		if r.Arity != arity {
			panic(fmt.Sprintf("datalog: relation %s has arity %d, not %d", name, r.Arity, arity))
		}
		return r
	}
	r := NewDLRelation(arity)
	r.builds = db.builds
	db.rels[name] = r
	return r
}

// CountIndexBuilds makes every index build on a relation of db — and of
// every database later cloned or forked from it — add one to c. An index
// is built when a relation is first probed on a column mask it has no
// index for; relations inherit their indexes across Clone and Fork, so the
// count says how often that inheritance did not suffice. Call it before
// sharing db.
func (db *Database) CountIndexBuilds(c *atomic.Int64) {
	db.builds = c
	for _, r := range db.rels {
		r.builds = c
	}
}

// Relation returns the named relation or nil.
func (db *Database) Relation(name string) *Relation { return db.rels[name] }

// AddFact inserts a fact, creating the relation on first use.
func (db *Database) AddFact(name string, vals ...int) {
	for _, v := range vals {
		if v < 0 || v >= db.N {
			panic(fmt.Sprintf("datalog: element %d outside universe of size %d", v, db.N))
		}
	}
	db.EnsureRelation(name, len(vals)).Add(Tuple(vals))
}

// Names returns the relation names in sorted order.
func (db *Database) Names() []string {
	var out []string
	for name := range db.rels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Clone returns a database the caller may mutate freely without affecting
// db: every relation is cloned, which shares its tuples and indexes with
// the original bucket by bucket (see Relation.Clone), so the cost is that
// of copying the directories.
func (db *Database) Clone() *Database {
	return db.Fork(db.Names()...)
}

// Fork returns a database that shares its relations with db except for the
// named ones, which are cloned so the fork can mutate them in place
// without affecting db. This is the copy-on-write primitive behind
// versioned EDB snapshots: a commit forks only the relations it touches,
// pays and retains memory in proportion to the tuples it changes, and
// the prior snapshot stays valid and immutable.
func (db *Database) Fork(modified ...string) *Database {
	out := &Database{N: db.N, builds: db.builds, rels: make(map[string]*Relation, len(db.rels))}
	for name, r := range db.rels {
		out.rels[name] = r
	}
	for _, name := range modified {
		if r, ok := db.rels[name]; ok {
			out.rels[name] = r.Clone()
		}
	}
	return out
}

// FromGraph builds a database with relation E from a directed graph.
func FromGraph(g *graph.Graph) *Database {
	db := NewDatabase(g.N())
	db.EnsureRelation("E", 2)
	for _, e := range g.Edges() {
		db.AddFact("E", e[0], e[1])
	}
	return db
}

// FromStructure converts a relational structure into a database; constant
// symbols are ignored (bind them as constant terms in the program instead).
func FromStructure(s *structure.Structure) *Database {
	db := NewDatabase(s.N)
	for _, rs := range s.Voc.Relations {
		db.EnsureRelation(rs.Name, rs.Arity)
		for _, t := range s.Rel(rs.Name).Tuples() {
			db.AddFact(rs.Name, t...)
		}
	}
	return db
}

// ParseDatabase reads the facts text format:
//
//	universe 10
//	E(0, 1).
//	E(1, 2).   % comment
//
// The universe directive must come first.
func ParseDatabase(src string) (*Database, error) {
	sc := bufio.NewScanner(strings.NewReader(src))
	var db *Database
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexAny(line, "%#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "universe") {
			if db != nil {
				return nil, fmt.Errorf("line %d: duplicate universe directive", lineNo)
			}
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "universe")))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("line %d: bad universe size", lineNo)
			}
			db = NewDatabase(n)
			continue
		}
		if db == nil {
			return nil, fmt.Errorf("line %d: facts before universe directive", lineNo)
		}
		line = strings.TrimSuffix(line, ".")
		open := strings.IndexByte(line, '(')
		closeP := strings.LastIndexByte(line, ')')
		if open <= 0 || closeP != len(line)-1 {
			return nil, fmt.Errorf("line %d: bad fact %q", lineNo, line)
		}
		name := strings.TrimSpace(line[:open])
		var vals []int
		for _, f := range strings.Split(line[open+1:closeP], ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("line %d: bad element %q", lineNo, f)
			}
			if v < 0 || v >= db.N {
				return nil, fmt.Errorf("line %d: element %d outside universe", lineNo, v)
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("line %d: fact with no arguments", lineNo)
		}
		db.AddFact(name, vals...)
	}
	if db == nil {
		return nil, fmt.Errorf("missing universe directive")
	}
	return db, nil
}
