package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// Each runs fn(ctx, i) for every i in [0, n) on a bounded pool: workers
// claim indexes in increasing order, the first error by index (not by
// wall-clock) cancels the remaining work and is returned, and ctx
// cancellation stops the pool between items. Each result is streamed to
// commit in strict index order as soon as its contiguous prefix is
// complete.
// Item 3's commit never waits on item 5's fn, only on items 0-2, so a
// slow straggler delays exactly the results behind it.
//
// commit is called sequentially (never concurrently with itself), with
// indexes 0, 1, 2, ... in order, at most once per index, and never
// again after it returns an error. A commit error cancels the pool and
// is the error returned — an fn error can only occur at a higher index
// (all lower indexes committed already), so this matches the
// lowest-index selection a serial loop interleaving fn and commit would
// exhibit. Results completed out of order wait in an Ordered until
// their predecessors land. Nothing applies backpressure: while one item
// runs long, the other workers keep claiming and finishing later
// indexes, so the buffer holds every result completed above the lowest
// unfinished index — up to n-1 entries, not workers-1.
func Each[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error), commit func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = DefaultWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return err
			}
			if err := commit(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		mu       sync.Mutex // guards firstErr/firstIdx
		firstErr error
		firstIdx int
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		cancel()
	}
	// decided reports whether an error below index i has fixed the
	// result, so item i need not run.
	decided := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil && firstIdx < i
	}
	ord := NewOrdered(commit)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					if err := parent.Err(); err != nil {
						fail(i, err)
						return
					}
					// An item failed. Stop if its index is lower; otherwise
					// run item i, as a serial loop would have before
					// reaching the failure.
					if decided(i) {
						return
					}
				}
				v, err := fn(ctx, i)
				if err != nil {
					fail(i, err)
					return
				}
				if idx, err := ord.Deliver(i, v); err != nil {
					fail(idx, err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErrOf(&mu, &firstErr)
}

// firstErrOf reads the selected error under its mutex (the workers have
// exited, but the lock keeps the race detector satisfied and the read
// ordered).
func firstErrOf(mu *sync.Mutex, firstErr *error) error {
	mu.Lock()
	defer mu.Unlock()
	return *firstErr
}
