package server

import (
	"context"
	"testing"

	"systolic/internal/sweep"
)

// TestRetryAfterOccupancyEdges pins the Retry-After estimate over the
// occupancy edge cases: whatever the limiter's capacity (including the
// unbounded nil limiter's 0) and however empty or loaded the pool, the
// hint is ≥ 1 second — a 0 tells RFC 9110 clients to retry
// immediately, turning every shed into a busy loop — and stays
// monotone in backlog.
func TestRetryAfterOccupancyEdges(t *testing.T) {
	cases := []struct {
		name    string
		cap     int // 0 = nil (unbounded) limiter
		inUse   int
		waiting int64
		want    int
	}{
		{"nil limiter, idle", 0, 0, 0, 1},
		{"cap 1, empty but shedding", 1, 0, 0, 1},
		{"cap 1, one running", 1, 1, 0, 1},
		{"cap 1, running plus waiter", 1, 1, 1, 2},
		{"cap 1, deep backlog", 1, 1, 4, 5},
		{"cap 4, idle", 4, 0, 0, 1},
		{"cap 4, saturated", 4, 4, 0, 1},
		{"cap 4, saturated plus pool", 4, 4, 8, 3},
		{"negative waiting is clamped", 1, 0, -3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var l *sweep.Limiter
			if tc.cap > 0 {
				l = sweep.NewLimiter(tc.cap)
				for i := 0; i < tc.inUse; i++ {
					if !l.TryAcquire() {
						t.Fatalf("acquired %d of %d slots", i, tc.inUse)
					}
				}
			}
			a := newAdmission(l, -1)
			a.waiting.Store(tc.waiting)
			if got := a.retryAfter(); got != tc.want {
				t.Errorf("retryAfter(cap=%d inUse=%d waiting=%d) = %d, want %d",
					tc.cap, tc.inUse, tc.waiting, got, tc.want)
			}
			if got := a.retryAfter(); got < 1 {
				t.Errorf("Retry-After %d < 1", got)
			}
		})
	}
}

// TestAdmitShedCarriesRetryAfter exercises the whole shed path: with
// -max-concurrency 1, no wait pool, and the only slot held, the next
// request is refused with 429 and a positive Retry-After.
func TestAdmitShedCarriesRetryAfter(t *testing.T) {
	l := sweep.NewLimiter(1)
	a := newAdmission(l, -1)
	if err := a.admit(context.Background()); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	defer l.Release()
	err := a.admit(context.Background())
	if err == nil {
		t.Fatal("second admit succeeded with the slot held")
	}
	se, ok := err.(*statusError)
	if !ok {
		t.Fatalf("shed error is %T, want *statusError", err)
	}
	if se.code != 429 {
		t.Errorf("shed status = %d, want 429", se.code)
	}
	if se.retryAfter < 1 {
		t.Errorf("shed Retry-After = %d, want ≥ 1", se.retryAfter)
	}
}
