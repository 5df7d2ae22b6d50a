package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestEachCommitsInOrder checks the core contract at several worker
// counts: commit sees 0..n-1 in strict order, exactly once each, even
// when completion order is scrambled.
func TestEachCommitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 200
			var got []int
			err := Each(context.Background(), workers, n,
				func(ctx context.Context, i int) (int, error) {
					if i%7 == 0 {
						time.Sleep(time.Millisecond) // scramble completion order
					}
					return i * i, nil
				},
				func(i, v int) error {
					if v != i*i {
						t.Errorf("commit(%d) got %d", i, v)
					}
					got = append(got, i)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("committed %d of %d", len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("commit order broken at %d: %v", i, got[:i+1])
				}
			}
		})
	}
}

// TestEachMatchesMap checks Each(commit=append) is equivalent to Map.
func TestEachMatchesMap(t *testing.T) {
	fn := func(ctx context.Context, i int) (int, error) { return i * 3, nil }
	want, err := Map(context.Background(), 8, 100, fn)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := Each(context.Background(), 8, 100, fn, func(i, v int) error {
		got = append(got, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestEachFnErrorLowestIndex mirrors Map's error-selection guarantee.
func TestEachFnErrorLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var committed []int
		err := Each(context.Background(), workers, 50,
			func(ctx context.Context, i int) (int, error) {
				if i >= 10 {
					return 0, fmt.Errorf("item %d failed", i)
				}
				return i, nil
			},
			func(i, v int) error {
				committed = append(committed, i)
				return nil
			})
		if err == nil || err.Error() != "item 10 failed" {
			t.Fatalf("workers=%d: err = %v, want item 10's", workers, err)
		}
		// No item at or past the failure may have been committed.
		for _, i := range committed {
			if i >= 10 {
				t.Fatalf("workers=%d: committed %d past failing index", workers, i)
			}
		}
	}
}

// TestEachLowestIndexErrorUnderCancel: a worker that claimed an index
// below the failing one but sees the pool's cancellation before running
// it must not report the cancellation in place of the item's error.
// The window is a few instructions wide, so the test repeats the sweep
// with yields in fn; it caught the defect under -race in every run.
func TestEachLowestIndexErrorUnderCancel(t *testing.T) {
	for r := 0; r < 2000; r++ {
		err := Each(context.Background(), 16, 50,
			func(_ context.Context, i int) (int, error) {
				runtime.Gosched()
				if i >= 10 && i%2 == 0 {
					return 0, fmt.Errorf("item %d", i)
				}
				return i, nil
			},
			func(int, int) error { return nil })
		if err == nil || err.Error() != "item 10" {
			t.Fatalf("round %d: err = %v, want item 10", r, err)
		}
	}
}

// TestEachCommitError checks a failing commit cancels the pool, is the
// error returned, and stops all further commits.
func TestEachCommitError(t *testing.T) {
	boom := errors.New("sink full")
	for _, workers := range []int{1, 8} {
		var calls []int
		err := Each(context.Background(), workers, 100,
			func(ctx context.Context, i int) (int, error) { return i, nil },
			func(i, v int) error {
				calls = append(calls, i)
				if i == 5 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want sink error", workers, err)
		}
		for _, i := range calls {
			if i > 5 {
				t.Fatalf("workers=%d: commit called for %d after error at 5", workers, i)
			}
		}
	}
}

// TestEachContextCancel checks cancellation stops the pool between
// items.
func TestEachContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	n := 0
	err := Each(ctx, 4, 1000,
		func(ctx context.Context, i int) (int, error) {
			mu.Lock()
			n++
			if n == 10 {
				cancel()
			}
			mu.Unlock()
			return i, nil
		},
		func(i, v int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEachZeroItems checks the n<=0 fast path.
func TestEachZeroItems(t *testing.T) {
	called := false
	if err := Each(context.Background(), 4, 0, func(ctx context.Context, i int) (int, error) { return 0, nil },
		func(i, v int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("commit called for zero items")
	}
}

// TestEachCommitNotConcurrent verifies commit never runs concurrently
// with itself (the race detector would also catch unsynchronized
// access, but this asserts the mutual exclusion explicitly).
func TestEachCommitNotConcurrent(t *testing.T) {
	var inCommit int32
	var mu sync.Mutex
	err := Each(context.Background(), 16, 500,
		func(ctx context.Context, i int) (int, error) { return i, nil },
		func(i, v int) error {
			mu.Lock()
			inCommit++
			if inCommit != 1 {
				t.Errorf("commit reentered: %d", inCommit)
			}
			mu.Unlock()
			mu.Lock()
			inCommit--
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
