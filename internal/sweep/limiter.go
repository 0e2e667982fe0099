package sweep

import (
	"context"
	"runtime"
)

// Limiter is a counting semaphore that bounds how many simulations run
// at once across otherwise independent callers. The sweep engine's
// worker pool bounds one grid; a Limiter bounds a whole process — the
// serving layer hands every request handler and every sweep it spawns
// the same Limiter, so a burst of /v1/run traffic and a wide /v1/sweep
// grid together never exceed the operator's -max-concurrency budget.
//
// A nil *Limiter is valid and imposes no bound, so callers can thread
// an optional limiter without branching.
type Limiter struct {
	sem chan struct{}
}

// NewLimiter returns a limiter admitting n concurrent holders; n <= 0
// means runtime.GOMAXPROCS(0).
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Limiter{sem: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free or ctx is done, returning
// ctx.Err() in the latter case. A nil limiter acquires immediately.
func (l *Limiter) Acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	select {
	case l.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot previously acquired. A nil limiter is a no-op.
func (l *Limiter) Release() {
	if l == nil {
		return
	}
	select {
	case <-l.sem:
	default:
		panic("sweep: Limiter.Release without Acquire")
	}
}

// TryAcquire takes a slot if one is free, without blocking, and
// reports whether it did. A nil limiter always succeeds.
func (l *Limiter) TryAcquire() bool {
	if l == nil {
		return true
	}
	select {
	case l.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// InUse reports how many slots are currently held (0 for nil).
func (l *Limiter) InUse() int {
	if l == nil {
		return 0
	}
	return len(l.sem)
}

// Cap reports the limiter's concurrency bound (0 for nil).
func (l *Limiter) Cap() int {
	if l == nil {
		return 0
	}
	return cap(l.sem)
}
