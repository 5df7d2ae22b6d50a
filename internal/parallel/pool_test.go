package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(context.Context, int) (int, error) {
		t.Fatal("fn called for n=0")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("Map(n=0) = %v, %v; want nil, nil", out, err)
	}
}

func TestMapOrderPreserved(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		out, err := Map(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapNilContext(t *testing.T) {
	out, err := Map[int](nil, 2, 3, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 {
		t.Fatalf("nil ctx: %v, %v", out, err)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Several items fail; the reported error must be the lowest-index
	// one — the error a serial loop would surface — regardless of
	// worker count.
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(context.Background(), workers, 50, func(_ context.Context, i int) (int, error) {
			if i >= 10 && i%2 == 0 {
				return 0, fmt.Errorf("item %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "item 10" {
			t.Fatalf("workers=%d: err = %v, want item 10", workers, err)
		}
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	_, err := Map(ctx, 2, 1000, func(ctx context.Context, i int) (int, error) {
		if calls.Add(1) == 1 {
			select {
			case started <- struct{}{}:
			default:
			}
			cancel()
		}
		return i, nil
	})
	<-started
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the pool (%d calls)", n)
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := Map(ctx, workers, 10, func(_ context.Context, i int) (int, error) {
			t.Error("fn called under cancelled context")
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), workers, 60, func(_ context.Context, i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapEachItemExactlyOnce(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]int)
	_, err := Map(context.Background(), 8, 500, func(_ context.Context, i int) (int, error) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 500 {
		t.Fatalf("%d distinct items, want 500", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("item %d ran %d times", i, n)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(4, 100); got != 4 {
		t.Errorf("DefaultWorkers(4, 100) = %d", got)
	}
	if got := DefaultWorkers(8, 3); got != 3 {
		t.Errorf("DefaultWorkers(8, 3) = %d, want capped at n", got)
	}
	if got := DefaultWorkers(0, 100); got < 1 {
		t.Errorf("DefaultWorkers(0, 100) = %d, want >= 1", got)
	}
	if got := DefaultWorkers(-5, 0); got != 1 {
		t.Errorf("DefaultWorkers(-5, 0) = %d, want 1", got)
	}
}

func TestProgressSerializedAndComplete(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	p := NewProgress(40, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != 40 {
			t.Errorf("total = %d", total)
		}
		dones = append(dones, done)
	})
	_, err := Map(context.Background(), 8, 40, func(_ context.Context, i int) (int, error) {
		p.Tick()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != 40 {
		t.Fatalf("%d progress ticks, want 40", len(dones))
	}
	seen := make(map[int]bool)
	for _, d := range dones {
		if d < 1 || d > 40 || seen[d] {
			t.Fatalf("bad done sequence %v", dones)
		}
		seen[d] = true
	}
}

func TestProgressCallbackNeedsNoLocking(t *testing.T) {
	// The callback mutates plain locals: Tick must serialize the calls
	// (race-clean under -race) and deliver done counts in order.
	calls, last := 0, 0
	inOrder := true
	p := NewProgress(200, func(done, total int) {
		calls++
		if done != last+1 {
			inOrder = false
		}
		last = done
	})
	_, err := Map(context.Background(), 8, 200, func(_ context.Context, i int) (int, error) {
		p.Tick()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 200 || !inOrder {
		t.Errorf("%d callbacks, in order %v; want 200 in order", calls, inOrder)
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.Tick() // must not panic
	NewProgress(3, nil).Tick()
}
