package datalog

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// mirrored is a live relation beside the plain map that says what it must
// contain.
type mirrored struct {
	rel  *Relation
	want map[string]Tuple
}

func (m *mirrored) fork(viaDB bool) *mirrored {
	c := &mirrored{want: make(map[string]Tuple, len(m.want))}
	for k, t := range m.want {
		c.want[k] = t
	}
	if viaDB {
		db := NewDatabase(1 << 20)
		db.rels["R"] = m.rel
		c.rel = db.Fork("R").Relation("R")
		if db.Fork().Relation("R") != m.rel {
			panic("Fork cloned a relation it was not asked to")
		}
	} else {
		c.rel = m.rel.Clone()
	}
	return c
}

// check compares the relation with its mirror on Has, Size, Tuples, the
// in-place scans, and Matches on the given masks for every stored tuple
// and a few absent patterns, and returns the first disagreement.
func (m *mirrored) check(rng *rand.Rand, universe int, masks []uint64) error {
	r := m.rel
	if r.Size() != len(m.want) {
		return fmt.Errorf("Size %d, want %d", r.Size(), len(m.want))
	}
	got := r.Tuples()
	if len(got) != len(m.want) {
		return fmt.Errorf("Tuples has %d tuples, want %d", len(got), len(m.want))
	}
	for i, tup := range got {
		if _, ok := m.want[tup.String()]; !ok {
			return fmt.Errorf("Tuples has %v, which was never added or was removed", tup)
		}
		if i > 0 && CompareTuples(got[i-1], tup) >= 0 {
			return fmt.Errorf("Tuples out of order or duplicated at %d: %v, %v", i, got[i-1], tup)
		}
	}
	n := 0
	r.Each(func(Tuple) bool { n++; return true })
	cur := r.Cursor()
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
		n++
	}
	if n != 2*len(m.want) {
		return fmt.Errorf("Each and Cursor visited %d tuples together, want %d", n, 2*len(m.want))
	}
	patterns := make([]Tuple, 0, len(m.want)+4)
	for _, tup := range m.want {
		if !r.Has(tup) {
			return fmt.Errorf("Has(%v) = false", tup)
		}
		patterns = append(patterns, tup)
	}
	for i := 0; i < 4; i++ {
		p := randTuple(rng, r.Arity, universe)
		if _, ok := m.want[p.String()]; r.Has(p) != ok {
			return fmt.Errorf("Has(%v) = %v", p, !ok)
		}
		patterns = append(patterns, p)
	}
	for _, mask := range masks {
		for _, p := range patterns {
			want := 0
			for _, tup := range m.want {
				if sameColumns(tup, p, mask) {
					want++
				}
			}
			seen := map[string]bool{}
			for _, tup := range r.Matches(p, mask) {
				if !sameColumns(tup, p, mask) {
					return fmt.Errorf("Matches(%v, %b) returned %v", p, mask, tup)
				}
				if _, ok := m.want[tup.String()]; !ok || seen[tup.String()] {
					return fmt.Errorf("Matches(%v, %b) returned %v (stored %v, repeated %v)", p, mask, tup, ok, seen[tup.String()])
				}
				seen[tup.String()] = true
			}
			if len(seen) != want {
				return fmt.Errorf("Matches(%v, %b) returned %d tuples, want %d", p, mask, len(seen), want)
			}
		}
	}
	return nil
}

func randTuple(rng *rand.Rand, arity, universe int) Tuple {
	t := make(Tuple, arity)
	for i := range t {
		t[i] = rng.Intn(universe)
	}
	return t
}

// TestRelationForkTree drives random interleavings of Add, Remove, Clone,
// Fork and EnsureIndex over a tree of forks — siblings of one parent,
// parents written after being cloned, directories growing on a fork — and
// holds every live relation to its mirror. The wide shape keys by spill
// strings; the binary one, over 24 elements, puts many tuples under each
// index key.
func TestRelationForkTree(t *testing.T) {
	shapes := []struct {
		name            string
		arity, universe int
		steps           int
	}{
		{"binary", 2, 24, 6000},
		{"ternary-sparse", 3, 1 << 20, 3000},
		{"wide-spill", 17, 3, 1500},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			sh, seed := sh, seed
			t.Run(fmt.Sprintf("%s/seed%d", sh.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				masks := []uint64{1, 2, 3}
				if sh.arity > 2 {
					masks = append(masks, 4, 5, 1<<uint(sh.arity-1), 1<<uint(sh.arity)-1)
				}
				live := []*mirrored{{rel: NewDLRelation(sh.arity), want: map[string]Tuple{}}}
				for step := 0; step < sh.steps; step++ {
					m := live[rng.Intn(len(live))]
					switch op := rng.Intn(100); {
					case op < 55:
						tup := randTuple(rng, sh.arity, sh.universe)
						_, had := m.want[tup.String()]
						if m.rel.Add(tup) == had {
							t.Fatalf("step %d: Add(%v) = %v", step, tup, !had)
						}
						m.want[tup.String()] = tup
					case op < 80:
						tup := randTuple(rng, sh.arity, sh.universe)
						if rng.Intn(3) > 0 {
							for _, tup = range m.want { // usually one that is there
								break
							}
						}
						_, had := m.want[tup.String()]
						if m.rel.Remove(tup) != had {
							t.Fatalf("step %d: Remove(%v) = %v", step, tup, !had)
						}
						delete(m.want, tup.String())
					case op < 86:
						if len(live) == 12 {
							i := rng.Intn(len(live))
							live[i] = live[len(live)-1]
							live = live[:len(live)-1]
						}
						live = append(live, m.fork(rng.Intn(2) == 0))
					case op < 90:
						m.rel.EnsureIndex(masks[rng.Intn(len(masks))])
					case op < 92:
						if err := m.check(rng, sh.universe, masks[rng.Intn(len(masks)):][:1]); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				}
				for _, m := range live {
					if err := m.check(rng, sh.universe, masks); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestPublishedRelationSharedReads has goroutines probe one published,
// index-less relation on every mask at once while others clone it and
// write to their clones: under -race, the proof that a cold probe builds
// its index without disturbing anyone, exactly once per mask.
func TestPublishedRelationSharedReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := &mirrored{rel: NewDLRelation(2), want: map[string]Tuple{}}
	for len(m.want) < 300 {
		tup := randTuple(rng, 2, 40)
		m.rel.Add(tup)
		m.want[tup.String()] = tup
	}
	var builds atomic.Int64
	m.rel.builds = &builds
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			if seed%2 == 0 {
				c := m.fork(seed%4 == 0)
				for i := 0; i < 100; i++ {
					tup := randTuple(rng, 2, 40)
					c.rel.Add(tup)
					c.want[tup.String()] = tup
				}
				if err := c.check(rng, 40, []uint64{1, 2, 3}); err != nil {
					t.Errorf("clone: %v", err)
				}
				return
			}
			if err := m.check(rng, 40, []uint64{1, 2, 3}); err != nil {
				t.Error(err)
			}
		}(int64(g))
	}
	wg.Wait()
	if err := m.check(rng, 40, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if n := len(m.rel.indexes()); n != 3 {
		t.Fatalf("published relation has %d indexes, want 3", n)
	}
	// Three on the published relation; a clone taken before one of them
	// was published builds its own.
	if b := builds.Load(); b < 3 || b > 3+4*3 {
		t.Fatalf("%d index builds", b)
	}
}

// churnBase is a 6.5k-tuple binary relation indexed on each column: the
// shape of the end-to-end benchmark's E.
func churnBase() *Relation {
	rng := rand.New(rand.NewSource(42))
	r := NewDLRelation(2)
	for r.Size() < 6500 {
		r.Add(randTuple(rng, 2, 8192))
	}
	r.EnsureIndex(1)
	r.EnsureIndex(2)
	return r
}

// churn applies one stationary commit: four tuples in, four out.
func churn(r *Relation, rng *rand.Rand) {
	for i := 0; i < 4; i++ {
		for !r.Add(randTuple(rng, 2, 8192)) {
		}
	}
	var victims []Tuple
	cur := r.Cursor()
	for skip := rng.Intn(r.Size() - 4); len(victims) < 4; skip-- {
		tup, _ := cur.Next()
		if skip < 0 {
			victims = append(victims, tup)
		}
	}
	for _, tup := range victims {
		r.Remove(tup)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestForkRetainedBytes holds 64 versions of the benchmark-shaped relation
// live, each a fork of the one before with four tuples in and four out,
// and requires all of them together to retain no more than twice what one
// relation does alone (64 private copies would retain 64 times).
func TestForkRetainedBytes(t *testing.T) {
	before := liveHeap()
	base := churnBase()
	one := int64(liveHeap() - before)
	rng := rand.New(rand.NewSource(7))
	versions := []*Relation{base}
	for i := 0; i < 64; i++ {
		next := versions[len(versions)-1].Clone()
		churn(next, rng)
		versions = append(versions, next)
	}
	grown := int64(liveHeap()-before) - one
	runtime.KeepAlive(versions)
	t.Logf("one relation retains %d KB; 64 forks of it add %d KB (%.2fx)", one>>10, grown>>10, float64(grown)/float64(one))
	if grown > 2*one {
		t.Fatalf("64 forks retain %d bytes beyond the relation's own %d: more than 2x", grown, one)
	}
	for i, v := range versions {
		if v.Size() != 6500 {
			t.Fatalf("version %d has %d tuples", i, v.Size())
		}
	}
}

var benchSink *Relation

// BenchmarkFork is one commit's storage work: fork the database's
// relation, four tuples in, four out. B/op is what the new version
// retains beyond the old.
func BenchmarkFork(b *testing.B) {
	db := NewDatabase(8192)
	db.rels["E"] = churnBase()
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db = db.Fork("E")
		churn(db.Relation("E"), rng)
	}
	benchSink = db.Relation("E")
}

// BenchmarkCloneThenMutate is the same work through Relation.Clone, which
// an Incremental's private copy of the EDB goes through.
func BenchmarkCloneThenMutate(b *testing.B) {
	r := churnBase()
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = r.Clone()
		churn(r, rng)
	}
	benchSink = r
}

// BenchmarkRebuildThenMutate is the yardstick: a private copy made tuple
// by tuple, indexes rebuilt, which is what a fork cost before relations
// shared structure.
func BenchmarkRebuildThenMutate(b *testing.B) {
	r := churnBase()
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := NewDLRelation(2)
		r.Each(func(t Tuple) bool { cp.Add(t); return true })
		cp.EnsureIndex(1)
		cp.EnsureIndex(2)
		churn(cp, rng)
		r = cp
	}
	benchSink = r
}
