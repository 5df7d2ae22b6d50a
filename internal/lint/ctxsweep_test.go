package lint

import "testing"

func TestCtxSweepRequiresContextOnExportedFanouts(t *testing.T) {
	src := `package sweep

import (
	"context"

	"energyprop/internal/parallel"
)

// Exported fan-out with no way to cancel it: finding.
func SweepAll(n int) ([]int, error) {
	return parallel.Map(context.Background(), 0, n, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
}
`
	checkFixture(t, []Rule{CtxSweep{}}, "fixture/sweep", src, []want{
		{line: 10, rule: "ctxsweep", substr: "SweepAll"},
	})
}

func TestCtxSweepRequiresForwardingNotBackground(t *testing.T) {
	src := `package sweep

import (
	"context"

	"energyprop/internal/parallel"
)

// Takes a ctx but severs it: finding on the argument.
func SweepSevered(ctx context.Context, n int) ([]int, error) {
	return parallel.Map(context.Background(), 0, n, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
}
`
	checkFixture(t, []Rule{CtxSweep{}}, "fixture/sweep", src, []want{
		{line: 11, rule: "ctxsweep", substr: "context.Background()"},
	})
}

func TestCtxSweepNegativeCases(t *testing.T) {
	src := `package sweep

import (
	"context"

	"energyprop/internal/parallel"
)

// Forwarding the caller's ctx (possibly wrapped) is the contract.
func SweepGood(ctx context.Context, n int) ([]int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return parallel.Map(ctx, 0, n, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
}

// Unexported helpers may own their context: the exported caller is the
// enforcement point.
func sweepInternal(n int) ([]int, error) {
	return parallel.Map(context.Background(), 0, n, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
}

// Exported code that only uses non-fan-out parallel helpers needs no ctx.
func Progressive(total int) int {
	return parallel.DefaultWorkers(0, total)
}
`
	checkFixture(t, []Rule{CtxSweep{}}, "fixture/sweep", src, nil)
}
