package fault

import (
	"context"
	"errors"
)

// RetryPolicy bounds re-execution of a failing operation: at most
// MaxAttempts tries, one straight after another.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included);
	// values < 1 mean 1, i.e. no retries.
	MaxAttempts int
}

// attempts resolves the policy's attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Do runs fn until it succeeds, the attempt budget is exhausted, or the
// context is cancelled, which is checked between attempts. It returns
// the number of attempts consumed and fn's final error (nil on
// success). Context errors — fn's own, or a cancellation seen between
// attempts — are returned immediately and never retried: a gone caller
// must not keep burning device time.
func (p RetryPolicy) Do(ctx context.Context, fn func(attempt int) error) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	budget := p.attempts()
	for attempt := 1; ; attempt++ {
		err := fn(attempt)
		if err == nil || attempt >= budget || IsContextErr(err) {
			return attempt, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return attempt, cerr
		}
	}
}

// IsContextErr reports whether err is (or wraps) a context
// cancellation or deadline expiry — the errors a retry must not absorb
// and a degrading campaign must not record as a point failure.
func IsContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
