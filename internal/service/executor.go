package service

import (
	"context"
	"runtime"
	"sync/atomic"
)

// executor bounds the number of concurrent from-scratch evaluations
// (historical-version and ad-hoc queries). Materialized reads of
// registered programs never pass through it — they are slices of the
// published view — so a burst of expensive queries cannot starve the cheap
// path, and N clients cost at most workers evaluations in flight.
type executor struct {
	sem      chan struct{}
	inFlight atomic.Int64
	total    atomic.Int64
	peak     atomic.Int64
}

// newExecutor returns an executor with the given worker bound; 0 means
// runtime.GOMAXPROCS(0).
func newExecutor(workers int) *executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &executor{sem: make(chan struct{}, workers)}
}

// acquire claims a worker slot, waiting until one frees up. A context
// that ends while queued returns ctx.Err() without claiming — cancelled
// clients stop occupying the queue the moment they give up. Every
// successful acquire must be paired with a release.
func (x *executor) acquire(ctx context.Context) error {
	select {
	case x.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	n := x.inFlight.Add(1)
	for {
		p := x.peak.Load()
		if n <= p || x.peak.CompareAndSwap(p, n) {
			break
		}
	}
	x.total.Add(1)
	return nil
}

// release returns a slot claimed by acquire.
func (x *executor) release() {
	x.inFlight.Add(-1)
	<-x.sem
}

// do runs f on the caller's goroutine once a worker slot is free.
// Streaming queries, whose evaluation spans the whole response drain,
// use acquire/release directly so the slot covers every pull.
func (x *executor) do(ctx context.Context, f func()) error {
	if err := x.acquire(ctx); err != nil {
		return err
	}
	defer x.release()
	f()
	return nil
}

func (x *executor) workers() int { return cap(x.sem) }
