package main

import (
	"math/rand"
	"time"
)

// The origin generators. Each feeds one session and closes its feed when
// generation stops, which lets the front-end end the session once
// everything fed has been delivered. A message's due time is fixed before
// it is built, so time the generator or the gateway loses shows up as
// latency, never as load that was quietly not offered.

// offerOrSkip offers message i unless the connection is already gone.
func (s *sess) offerOrSkip(c clock, cp *corpus, i int, due int64) {
	select {
	case <-s.done:
		s.skip(due)
	default:
		s.offer(c, due, cp.build(i))
	}
}

// openLoop offers messages from start until stop, one per period on
// average. The gaps between due times are exponential (Poisson arrivals),
// so the due times do not lock into step with the gateway's polling and
// egress flush cycles. A message waits for room under the session's
// queued-bytes bound (see admit) after its due time, so the wait counts in
// its latency. The feed closes once the gateway has settled.
func (s *sess) openLoop(c clock, cp *corpus, start, stop, period int64, rng *rand.Rand) {
	defer close(s.feed)
	defer s.settle()
	due := start
	for i := 0; ; i++ {
		if i > 0 {
			due += int64(rng.ExpFloat64() * float64(period))
		}
		if due >= stop {
			return
		}
		c.sleepUntil(due)
		s.admit(len(cp.body[i%len(cp.body)]))
		s.offerOrSkip(c, cp, i, due)
	}
}

// settleQuiet is how long the gateway's queues must stay empty before
// settle lets a session close its feed; settleMax bounds the wait.
const (
	settleQuiet = 50 * time.Millisecond
	settleMax   = 5 * time.Second
)

// settle returns once the gateway's queues have been empty for settleQuiet
// (or after settleMax, or when the connection has ended). A per-connection
// session whose feed is closed ends as soon as everything fed has been
// relayed or the stream reports it can terminate; that report checks the
// streamlets one after another, so it can miss a message that moves
// between two of them while it runs, and the session then ends without
// it. Closing the feed once the chain is idle keeps a long session's end
// off that race, which the churn workload measures.
func (s *sess) settle() {
	var quiet time.Time // when the queues were first seen empty; zero while busy
	for t0 := time.Now(); time.Since(t0) < settleMax; {
		switch {
		case queuedBytes.Value() > 0:
			quiet = time.Time{}
		case quiet.IsZero():
			quiet = time.Now()
		case time.Since(quiet) >= settleQuiet:
			return
		}
		select {
		case <-s.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// closedLoop keeps window messages undelivered: the first window are due
// at start, and each later one is due when a delivery frees a slot.
// Generation stops at stop.
func (s *sess) closedLoop(c clock, cp *corpus, start, stop int64, window int) {
	defer close(s.feed)
	for i := 0; i < window; i++ {
		s.credit <- start
	}
	c.sleepUntil(start)
	timeout := time.NewTimer(time.Duration(stop - c.now()))
	defer timeout.Stop()
	for i := 0; ; i++ {
		var due int64
		select {
		case due = <-s.credit:
		case <-s.done:
			return
		case <-timeout.C:
			return
		}
		if due >= stop || c.now() >= stop {
			return
		}
		s.offerOrSkip(c, cp, i, due)
	}
}

// burst offers n messages, all due when the session was.
func (s *sess) burst(c clock, cp *corpus, n int) {
	defer close(s.feed)
	for i := 0; i < n; i++ {
		s.offerOrSkip(c, cp, i, s.dueNs)
	}
}
