package parallel

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOrderedProperty drives an Ordered from G goroutines that deliver
// a random permutation of n indexes between them. Commits must arrive
// as 0..n-1, once each and never concurrently; when commit fails at
// index k, nothing above k is committed, exactly one Deliver reports the
// error (naming k), and every other Deliver returns a nil error. Run it
// under -race: the commit log is a plain slice.
func TestOrderedProperty(t *testing.T) {
	errStop := errors.New("commit rejected")
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(120)
		g := 1 + rng.Intn(8)
		failAt := -1
		if rng.Intn(3) == 0 {
			failAt = rng.Intn(n)
		}
		perm := rng.Perm(n)

		var (
			committed []int
			inCommit  atomic.Bool
		)
		ord := NewOrdered(func(i int, v int) error {
			if !inCommit.CompareAndSwap(false, true) {
				t.Errorf("trial %d: concurrent commit at %d", trial, i)
			}
			defer inCommit.Store(false)
			if v != i*i {
				t.Errorf("trial %d: commit(%d) got %d", trial, i, v)
			}
			committed = append(committed, i)
			if i == failAt {
				return errStop
			}
			return nil
		})

		type report struct {
			idx int
			err error
		}
		reports := make(chan report, n)
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := w; j < n; j += g {
					i := perm[j]
					if idx, err := ord.Deliver(i, i*i); err != nil {
						reports <- report{idx, err}
					}
				}
			}()
		}
		wg.Wait()
		close(reports)

		want := n
		if failAt >= 0 {
			want = failAt + 1
		}
		if len(committed) != want {
			t.Fatalf("trial %d (n=%d g=%d failAt=%d): %d commits, want %d", trial, n, g, failAt, len(committed), want)
		}
		for k, i := range committed {
			if i != k {
				t.Fatalf("trial %d: commit %d was index %d: %v", trial, k, i, committed)
			}
		}
		var got []report
		for r := range reports {
			got = append(got, r)
		}
		switch {
		case failAt < 0 && len(got) != 0:
			t.Fatalf("trial %d: Deliver reported %v without a commit error", trial, got)
		case failAt >= 0 && (len(got) != 1 || got[0].idx != failAt || !errors.Is(got[0].err, errStop)):
			t.Fatalf("trial %d: Deliver reported %v, want one errStop at %d", trial, got, failAt)
		}
		// The buffer is dead after a commit error: a late delivery is
		// discarded and reports nothing.
		if failAt >= 0 {
			if _, err := ord.Deliver(n, n*n); err != nil {
				t.Fatalf("trial %d: Deliver after the failure returned %v", trial, err)
			}
			if len(committed) != want {
				t.Fatalf("trial %d: a delivery after the failure committed", trial)
			}
		}
	}
}
