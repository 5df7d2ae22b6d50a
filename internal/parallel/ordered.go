package parallel

import "sync"

// Ordered is the reorder buffer between workers that finish items out
// of index order and a commit that must see them in order: Each and
// fleet.Each both stream through one. Whichever caller delivers the
// blocking index drains the contiguous prefix, so no dedicated committer
// goroutine (or channel hop) sits on the hot path.
//
// commit is called sequentially (never concurrently with itself), with
// indexes 0, 1, 2, ... in order, at most once per index, and never
// again after it returns an error. Results delivered ahead of a missing
// predecessor are buffered until it lands; nothing bounds the buffer.
type Ordered[T any] struct {
	mu      sync.Mutex // guards pending/next/dead and serializes commit
	pending map[int]T
	next    int  // next index commit expects
	dead    bool // a commit errored; never call it again
	commit  func(i int, v T) error
}

// NewOrdered returns an empty buffer that commits through commit.
func NewOrdered[T any](commit func(i int, v T) error) *Ordered[T] {
	return &Ordered[T]{pending: make(map[int]T), commit: commit}
}

// Deliver hands item i's result to the buffer and commits every result
// now contiguous with the committed prefix. Each index must be delivered
// at most once. A commit error is returned with the index it failed at;
// after one, Deliver discards its argument and returns a nil error.
func (o *Ordered[T]) Deliver(i int, v T) (failedIdx int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		return 0, nil
	}
	o.pending[i] = v
	for {
		w, ok := o.pending[o.next]
		if !ok {
			return 0, nil
		}
		delete(o.pending, o.next)
		idx := o.next
		o.next++
		if err := o.commit(idx, w); err != nil {
			o.dead = true
			return idx, err
		}
	}
}
