package queue

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestTimerPoolNoStaleExpiry is the regression gate for the ReleaseTimer
// audit (see the comment there): under the pre-1.23 timer runtime the
// Stop-then-nonblocking-drain pattern could pool a timer whose expiry send
// was still in flight, so the next borrower saw an instant spurious tick —
// a premature Post drop or Fetch timeout. The module now requires the 1.23+
// timer semantics, under which Stop/Reset guarantee no stale delivery.
// This test hammers the fire-vs-release window directly and asserts a
// re-borrowed timer never reports a tick it did not earn. Run with -race.
func TestTimerPoolNoStaleExpiry(t *testing.T) {
	// Direct pool hammering: borrow with an about-to-fire deadline, release
	// right around the firing instant, immediately re-borrow with a far
	// deadline. Gosched widens the window in which the expiry send races
	// the release.
	for i := 0; i < 2000; i++ {
		short := AcquireTimer(time.Microsecond)
		runtime.Gosched()
		ReleaseTimer(short)
		long := AcquireTimer(time.Hour)
		runtime.Gosched()
		select {
		case <-long.C:
			t.Fatalf("iteration %d: reused timer delivered a stale expiry", i)
		default:
		}
		ReleaseTimer(long)
	}

	// End-to-end: the same window through FetchTimeout on an empty queue.
	// A stale tick would make the generous wait return instantly; honest
	// scheduling delays can only make it slower, never faster, so the
	// elapsed-time assertion cannot flake under load.
	q := New("timer-race", Options{})
	const generous = 5 * time.Millisecond
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q.FetchTimeout(time.Microsecond) // expire a pooled timer
				start := time.Now()
				if _, ok := q.FetchTimeout(generous); ok {
					t.Error("fetched from an empty queue")
					return
				}
				if d := time.Since(start); d < generous/2 {
					t.Errorf("iteration %d: FetchTimeout(%v) returned after %v — stale pooled tick", i, generous, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}
