package datalog

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestKeyInjectiveOnRandomTuples is the load-bearing property of the
// packed-tuple encoding: within one arity, keys coincide exactly when the
// tuples do — across the packed/spill boundary and every width class.
func TestKeyInjectiveOnRandomTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ranges := []int{2, 16, 256, 65536, 1 << 20, 1 << 32}
	for _, arity := range []int{0, 1, 2, 3, 4, 7, 8, 15, 16, 20} {
		for _, max := range ranges {
			for trial := 0; trial < 200; trial++ {
				a := make(Tuple, arity)
				b := make(Tuple, arity)
				same := true
				for i := range a {
					a[i] = rng.Intn(max)
					b[i] = rng.Intn(max)
					if a[i] != b[i] {
						same = false
					}
				}
				if (keyOf(a) == keyOf(b)) != same {
					t.Fatalf("arity %d max %d: key collision/mismatch on %v vs %v", arity, max, a, b)
				}
			}
		}
	}
}

func TestKeyProjectedMatchesKeyOfProjection(t *testing.T) {
	prop := func(raw []uint16, mask uint64) bool {
		t1 := make(Tuple, len(raw))
		for i, x := range raw {
			t1[i] = int(x)
		}
		var proj Tuple
		for i, x := range t1 {
			if mask&(1<<uint(i)) != 0 {
				proj = append(proj, x)
			}
		}
		return keyProjected(t1, mask) == keyOf(proj)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKeySpillModes(t *testing.T) {
	// Arity 16 with small elements exceeds the 62-bit packed budget.
	wide := make(Tuple, 16)
	for i := range wide {
		wide[i] = i
	}
	if k := keyOf(wide); k.spill == "" {
		t.Fatal("arity-16 tuple should spill")
	}
	// Arity 15 with elements < 16 still packs.
	narrow := make(Tuple, 15)
	for i := range narrow {
		narrow[i] = i
	}
	if k := keyOf(narrow); k.spill != "" {
		t.Fatal("arity-15 nibble tuple should pack")
	}
	// Negative elements (never produced by a Database, but Relation must
	// stay correct) spill too.
	if k := keyOf(Tuple{-1, 3}); k.spill == "" {
		t.Fatal("negative element should spill")
	}
	if keyOf(Tuple{-1, 3}) == keyOf(Tuple{-1, 4}) {
		t.Fatal("spill keys must stay injective")
	}
}

// TestRelationHighArity drives Add/Has/lookup through the spill path.
func TestRelationHighArity(t *testing.T) {
	r := NewDLRelation(16)
	rng := rand.New(rand.NewSource(7))
	var added []Tuple
	for i := 0; i < 200; i++ {
		tup := make(Tuple, 16)
		for j := range tup {
			tup[j] = rng.Intn(1 << 20)
		}
		r.Add(tup)
		added = append(added, tup)
	}
	for _, tup := range added {
		if !r.Has(tup) {
			t.Fatalf("lost %v", tup)
		}
	}
	// Indexed lookup on the first column must agree with a scan.
	probe := added[0]
	pattern := make(Tuple, 16)
	pattern[0] = probe[0]
	var scan []Tuple
	r.Each(func(t Tuple) bool {
		if t[0] == pattern[0] {
			scan = append(scan, t)
		}
		return true
	})
	idx := r.Matches(pattern, 1)
	if len(scan) != len(idx) {
		t.Fatalf("scan %d vs index %d results", len(scan), len(idx))
	}
	for _, got := range idx {
		if got[0] != probe[0] {
			t.Fatalf("index returned non-matching tuple %v", got)
		}
	}
}
