// Package parallel is the bounded worker-pool substrate behind every
// fan-out hot path: GPU configuration sweeps (gpusim.Sweep, ClockSweep),
// measured campaigns (campaign.Run), and the HTTP /sweep endpoint. It
// exists so that "run f over N independent items on W goroutines, keep
// the results in item order, stop early on error or cancellation" is
// written — and tested under -race — exactly once.
//
// The pool makes two guarantees the callers' determinism contracts rest
// on:
//
//   - Order: results are returned indexed by item, never by completion
//     time, so a parallel sweep is byte-identical to a serial one as long
//     as f(i) itself does not depend on execution order.
//   - Error selection: when several items fail, the error reported is the
//     one with the lowest index — the same error a serial loop would have
//     returned first — so error behaviour does not vary with worker count
//     or scheduling.
package parallel

import (
	"context"
	"runtime"
)

// DefaultWorkers resolves a worker-count request: values < 1 mean "one
// worker per available CPU" (runtime.GOMAXPROCS), and any request is
// capped at n, the number of items, so tiny jobs never spawn idle
// goroutines.
func DefaultWorkers(workers, n int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(ctx, i) for every i in [0, n) through Each and returns
// the results in index order. workers < 1 selects runtime.GOMAXPROCS(0);
// workers == 1 degenerates to a plain serial loop (no goroutines are
// spawned), which is the reference path the determinism tests compare
// against.
//
// The first error (by item index, not by wall-clock) cancels the
// remaining work and is returned; likewise ctx cancellation stops the
// pool between items and returns ctx.Err(). Items already in flight run
// to completion — fn is never interrupted mid-call — so fn must be quick
// enough per item for cancellation to be responsive.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	if err := Each(ctx, workers, n, fn, func(i int, v T) error {
		out[i] = v
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
