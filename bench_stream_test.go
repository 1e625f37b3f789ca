// E29: the streaming execution layer. Two questions, per DESIGN.md §13:
// what a full drain of a layered non-recursive join costs on the pull
// iterator tree versus semi-naive materialization (wall clock and, more
// to the point, allocations — the streamed run never stores the
// intermediate relations), and how much a limit-N query saves when the
// iterator stops pulling at N answers instead of computing the fixpoint
// and truncating.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/stream"
)

// e29Source composes two joins: K is a three-way join of E, F, G with
// the intermediate J never asked for. Materialized evaluation stores J
// in full; the streamed plan inlines it.
const e29Source = `
J(x, z) :- E(x, y), F(y, z).
K(x, w) :- J(x, z), G(z, w).
goal K.
`

// e29DB builds a random EDB with perFact facts in each of E, F, G over
// an n-element universe (seeded, so every run sees the same database).
func e29DB(n, perFact int) *datalog.Database {
	rng := rand.New(rand.NewSource(29))
	db := datalog.NewDatabase(n)
	for _, pred := range []string{"E", "F", "G"} {
		for i := 0; i < perFact; i++ {
			db.AddFact(pred, rng.Intn(n), rng.Intn(n))
		}
	}
	return db
}

// e29Stream answers K through the streaming executor: Open, then Collect,
// which drains and sorts into the canonical order.
func e29Stream(b *testing.B, p *datalog.Program, db *datalog.Database, limit int) []datalog.Tuple {
	b.Helper()
	s, err := stream.Open(context.Background(), p, db, "K", stream.Options{Eval: datalog.DefaultOptions, Limit: limit})
	if err != nil {
		b.Fatal(err)
	}
	got, err := stream.Collect(s)
	if err != nil {
		b.Fatal(err)
	}
	return got
}

// e29Equiv asserts once, outside the timed region, that both executions
// produce byte-identical answer sets after the canonical sort.
func e29Equiv(b *testing.B, p *datalog.Program, db *datalog.Database) {
	b.Helper()
	res, err := datalog.Eval(p, db.Clone(), datalog.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	want := res.IDB["K"].Tuples()
	got := e29Stream(b, p, db.Clone(), 0)
	if len(got) != len(want) {
		b.Fatalf("streamed %d answers, materialized %d", len(got), len(want))
	}
	for i := range got {
		if datalog.CompareTuples(got[i], want[i]) != 0 {
			b.Fatalf("answer %d differs: streamed %v, materialized %v", i, got[i], want[i])
		}
	}
}

// BenchmarkE29_ChainJoinDrain drains the full K relation both ways. The
// streamed side sorts its output into the canonical order (Collect) so the
// two timed regions end in the same state.
func BenchmarkE29_ChainJoinDrain(b *testing.B) {
	p, err := datalog.Parse(e29Source)
	if err != nil {
		b.Fatal(err)
	}
	for _, scale := range []struct{ n, facts int }{{256, 1024}, {512, 4096}} {
		db := e29DB(scale.n, scale.facts)
		name := fmt.Sprintf("n%d-f%d", scale.n, scale.facts)
		b.Run(name+"/materialized", func(b *testing.B) {
			e29Equiv(b, p, db)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := datalog.Eval(p, db.Clone(), datalog.DefaultOptions)
				if err != nil {
					b.Fatal(err)
				}
				if res.IDB["K"].Size() == 0 {
					b.Fatal("empty answer")
				}
			}
		})
		b.Run(name+"/streamed", func(b *testing.B) {
			e29Equiv(b, p, db)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(e29Stream(b, p, db.Clone(), 0)) == 0 {
					b.Fatal("empty answer")
				}
			}
		})
	}
}

// BenchmarkE29_FirstN asks for the first 10 answers. The materialized
// side has no choice but to compute the whole fixpoint and truncate; the
// streamed side stops pulling at the limit.
func BenchmarkE29_FirstN(b *testing.B) {
	p, err := datalog.Parse(e29Source)
	if err != nil {
		b.Fatal(err)
	}
	db := e29DB(512, 4096)
	const limit = 10
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := datalog.Eval(p, db.Clone(), datalog.DefaultOptions)
			if err != nil {
				b.Fatal(err)
			}
			page := res.IDB["K"].Tuples()
			if len(page) > limit {
				page = page[:limit]
			}
			if len(page) != limit {
				b.Fatal("short answer")
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(e29Stream(b, p, db.Clone(), limit)) != limit {
				b.Fatal("short answer")
			}
		}
	})
}
