package datalog

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// errAfterCtx is a deterministic cancellation harness: Err() reports
// context.Canceled from the n-th check onward. The engine polls ctx.Err()
// (never Done), so this simulates a cancellation landing mid-fixpoint at
// an exact evaluation point, with no timing dependence.
type errAfterCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestEvalContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := EvalContext(ctx, TransitiveClosureProgram(), FromGraph(graph.DirectedPath(10)), DefaultOptions)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("EvalContext must return the partial result alongside ctx.Err()")
	}
	if res.Rounds != 0 || res.IDB["S"].Size() != 0 {
		t.Fatalf("pre-cancelled eval did work: rounds=%d size=%d", res.Rounds, res.IDB["S"].Size())
	}
}

func TestEvalContextExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := EvalContext(ctx, TransitiveClosureProgram(), FromGraph(graph.DirectedPath(10)), DefaultOptions)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEvalContextCancelMidFixpoint cancels during the 80-node
// transitive-closure fixpoint (the E1 workload) and checks that the
// evaluation aborts within the round the cancellation lands in,
// returning ctx.Err() plus a whole-rounds-only partial prefix.
func TestEvalContextCancelMidFixpoint(t *testing.T) {
	g := graph.DirectedPath(80)
	full := MustEval(TransitiveClosureProgram(), FromGraph(g))
	ctx := &errAfterCtx{Context: context.Background(), after: 30}
	res, err := EvalContext(ctx, TransitiveClosureProgram(), FromGraph(g), DefaultOptions)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Rounds == 0 || res.Rounds >= full.Rounds {
		t.Fatalf("partial rounds = %d, want in (0, %d)", res.Rounds, full.Rounds)
	}
	// The partial result is a consistent prefix of the fixpoint.
	for _, tup := range res.IDB["S"].Tuples() {
		if !full.IDB["S"].Has(tup) {
			t.Fatalf("partial result has %v outside the fixpoint", tup)
		}
	}
	if res.IDB["S"].Size() >= full.IDB["S"].Size() {
		t.Fatal("cancelled eval computed the whole fixpoint")
	}
	// The abort happened within one round of the cancellation point:
	// every recorded round was fully committed before the trigger.
	if got := len(res.Stats.Rounds); got != res.Rounds {
		t.Fatalf("%d round stats for %d rounds", got, res.Rounds)
	}
}

func TestIncrementalContextAbortBreaksView(t *testing.T) {
	g := graph.DirectedPath(40)
	inc, err := NewIncremental(TransitiveClosureProgram(), FromGraph(g), DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The new edge closes the path into a cycle, so maintenance has real
	// work to do — which the cancelled context aborts mid-update.
	err = inc.InsertContext(ctx, Fact{Pred: "E", Tuple: Tuple{39, 0}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("InsertContext err = %v, want context.Canceled", err)
	}
	if inc.Err() == nil {
		t.Fatal("aborted maintenance must break the view")
	}
	// Every later call reports the broken view.
	err = inc.Insert(Fact{Pred: "E", Tuple: Tuple{0, 2}})
	if !errors.Is(err, ErrViewBroken) {
		t.Fatalf("Insert on broken view: err = %v, want ErrViewBroken", err)
	}
	if err := inc.Delete(Fact{Pred: "E", Tuple: Tuple{0, 1}}); !errors.Is(err, ErrViewBroken) {
		t.Fatalf("Delete on broken view: err = %v, want ErrViewBroken", err)
	}
}

func TestIncrementalContextCleanRunsStayUsable(t *testing.T) {
	g := graph.DirectedPath(10)
	inc, err := NewIncremental(TransitiveClosureProgram(), FromGraph(g), DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.InsertContext(context.Background(), Fact{Pred: "E", Tuple: Tuple{9, 0}}); err != nil {
		t.Fatal(err)
	}
	if inc.Err() != nil {
		t.Fatalf("clean update broke the view: %v", inc.Err())
	}
	want := MustEval(TransitiveClosureProgram(), inc.DB())
	if got, exp := inc.Result().IDB["S"].Size(), want.IDB["S"].Size(); got != exp {
		t.Fatalf("maintained size %d, from-scratch %d", got, exp)
	}
}

func TestNewIncrementalContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewIncrementalContext(ctx, TransitiveClosureProgram(), FromGraph(graph.DirectedPath(10)), DefaultOptions)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTopDownAskContextCancelled(t *testing.T) {
	td, err := NewTopDown(TransitiveClosureProgram(), FromGraph(graph.DirectedPath(20)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := td.AskContext(ctx, NewGoal("S", 2, nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("AskContext err = %v, want context.Canceled", err)
	}
	// The engine stays usable: a fresh background ask still answers.
	out, err := td.AskContext(context.Background(), NewGoal("S", 2, map[int]int{0: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 19 {
		t.Fatalf("post-cancel ask: %d tuples, want 19", len(out))
	}
}

func TestOptionsValidate(t *testing.T) {
	if _, err := Eval(TransitiveClosureProgram(), FromGraph(graph.DirectedPath(4)),
		DefaultOptions.WithMaxRounds(-1)); err == nil {
		t.Fatal("negative MaxRounds must be rejected")
	}
	// The builders compose without touching the receiver.
	base := DefaultOptions
	derived := base.WithMaxRounds(7).WithSemiNaive(false).WithIndexes(false).WithProvenance(true)
	if base != DefaultOptions {
		t.Fatal("builders mutated the base options")
	}
	if derived.MaxRounds != 7 || derived.SemiNaive || derived.UseIndexes || !derived.TrackProvenance {
		t.Fatalf("builder result %+v", derived)
	}
}
