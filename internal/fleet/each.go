package fleet

import (
	"context"

	"energyprop/internal/device"
	"energyprop/internal/parallel"
)

// Each runs fn over n items through the coordinator's deterministic
// shard scheduler and streams each result to commit in strict item
// order: the fleet analog of parallel.Each, and the coordinator's one
// fan-out entry point. Results that complete out of item order (shards
// run concurrently and may be retried elsewhere after preemption) wait
// in a parallel.Ordered until their predecessors land, so commit keeps
// that type's contract; a commit error aborts the run like any item
// error would.
func Each[T any](ctx context.Context, c *Coordinator, n int, fn func(ctx context.Context, dev device.Device, item int) (T, error), commit func(item int, v T) error) error {
	ord := parallel.NewOrdered(commit)
	return c.run(ctx, n, func(ctx context.Context, dev device.Device, item int) error {
		v, err := fn(ctx, dev, item)
		if err != nil {
			return err
		}
		_, err = ord.Deliver(item, v)
		return err
	})
}
