package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobigate/internal/mime"
	"mobigate/internal/obs"
)

// clock is the benchmark's monotonic time base, in nanoseconds.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// sleepUntil sleeps until the clock reads t (no-op when already past).
func (c clock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// window is the measured interval [from, to) of a pass.
type window struct{ from, to int64 }

func (w window) has(t int64) bool { return t >= w.from && t < w.to }

// latency is one delivered message's latency and its due time.
type latency struct {
	due int64
	ms  float64
}

// sess is one client session as the origin and the client see it. The
// generator appends each message's due time before handing it off; the
// client handler checks every delivery against the corpus and records its
// latency from the due time, so a stall anywhere in the gateway shows in
// the latency of every message due while it lasted.
type sess struct {
	id     int
	dueNs  int64 // when the session was due to start
	traced bool

	feed chan *mime.Message // origin → front-end feeder
	done chan struct{}      // closed when the client connection has ended
	// credit carries delivery times back to a closed-loop generator: each
	// delivery frees one window slot and its time is the next message's due.
	credit chan int64
	// capBytes bounds the gateway's queued bytes at each hand-off (0:
	// unbounded). Only the session's generator touches the three.
	capBytes int
	capOff   bool // the bound was lifted after a stall
	held     int  // messages that waited under the bound

	mu        sync.Mutex
	due       []int64 // per origin index
	emit      []int64 // traced: when the generator started the hand-off
	hand      []int64 // traced: when the front-end took the message
	offered   int
	delivered int
	last      [2]int // highest origin index seen per FIFO branch
	firstNs   int64
	endNs     int64
	got       []bool    // per origin index: delivered intact
	lat       []latency // messages due inside the window
	transit   []float64 // traced: hand-off → handler, µs
	corrupt   []error
	refused   error
}

func newSess(id int, due int64, window int, traced bool) *sess {
	s := &sess{
		id: id, dueNs: due, traced: traced,
		feed: make(chan *mime.Message),
		done: make(chan struct{}),
		last: [2]int{-1, -1},
	}
	if window > 0 {
		s.credit = make(chan int64, window)
	}
	return s
}

// offer hands the session's next origin message, due at due, to the
// front-end unless the connection has already ended. It reports whether
// the hand-off happened.
func (s *sess) offer(c clock, due int64, m *mime.Message) bool {
	s.mu.Lock()
	i := len(s.due)
	s.due = append(s.due, due)
	s.offered++
	if s.traced {
		s.emit = append(s.emit, c.now())
		s.hand = append(s.hand, 0)
	}
	s.mu.Unlock()
	select {
	case s.feed <- m:
	case <-s.done:
		return false
	}
	if s.traced {
		h := c.now()
		s.mu.Lock()
		s.hand[i] = h
		s.mu.Unlock()
	}
	return true
}

// queuedBytes is the gateway-wide count of message bytes waiting in
// queues (every stream instance of the process).
var queuedBytes = obs.DefaultIntGauge(obs.MQueueQueuedBytes)

// capStall is how long admit waits before it lifts the queued-bytes bound
// for the rest of the session.
const capStall = 10 * time.Second

// admit waits until n more bytes fit under the session's bound on the
// gateway's queued bytes. The bound keeps every queue below its capacity
// through a stall of the shared box, so the feed never reaches the drop
// path (a full inlet queue drops the message, and the front-end then ends
// the whole feed). Bytes already relayed into the egress buffer are not
// queued, so the bound cannot wait on the buffer's flush. A message is
// always admitted when nothing is queued; a pipeline that stays stuck for
// capStall lifts the bound, and what it then loses counts as failed.
func (s *sess) admit(n int) {
	if s.capBytes <= 0 || s.capOff {
		return
	}
	t0 := time.Now()
	for waited := false; ; waited = true {
		if q := int(queuedBytes.Value()); q <= 0 || q+n <= s.capBytes {
			if waited {
				s.held++
			}
			return
		}
		if time.Since(t0) > capStall {
			s.capOff = true
			return
		}
		select {
		case <-s.done:
			return
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// skip counts the next message as offered without a hand-off (its
// connection is gone), so it lands in the loss count.
func (s *sess) skip(due int64) {
	s.mu.Lock()
	s.due = append(s.due, due)
	s.offered++
	if s.traced {
		s.emit = append(s.emit, 0)
		s.hand = append(s.hand, 0)
	}
	s.mu.Unlock()
}

// gap describes the messages the session offered but did not receive
// intact: how many, and the first few with their due time relative to
// the end of the window w.
func (s *sess) gap(w window) string {
	var first []string
	for i := 0; i < s.offered && len(first) < 5; i++ {
		if i >= len(s.got) || !s.got[i] {
			first = append(first, fmt.Sprintf("%d (due %+.3f s)", i, float64(s.due[i]-w.to)/1e9))
		}
	}
	return fmt.Sprintf("session %d: %d of %d offered not delivered intact; first %s; times relative to the window end",
		s.id, s.offered-s.delivered, s.offered, strings.Join(first, ", "))
}

// tally aggregates deliveries across sessions for the measured window.
type tally struct {
	inWindow atomic.Int64 // intact deliveries received inside the window
	wire     atomic.Int64 // bytes the clients read from the gateway
}

// deliver is the client handler: it verifies m against the corpus, checks
// per-branch FIFO order, and records latency (and, traced, transit).
func (s *sess) deliver(c clock, w window, cp *corpus, t *tally, m *mime.Message) {
	now := c.now()
	seq, branch, err := cp.check(m)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && seq >= len(s.due) {
		err = fmt.Errorf("message %d was never offered", seq)
	}
	if err == nil && seq <= s.last[branch] {
		err = fmt.Errorf("message %d delivered after %d (reordered or duplicated)", seq, s.last[branch])
	}
	if err != nil {
		s.corrupt = append(s.corrupt, fmt.Errorf("session %d: %w", s.id, err))
		return
	}
	s.last[branch] = seq
	for len(s.got) <= seq {
		s.got = append(s.got, false)
	}
	s.got[seq] = true
	s.delivered++
	if s.firstNs == 0 {
		s.firstNs = now
	}
	if w.has(now) {
		t.inWindow.Add(1)
	}
	due := s.due[seq]
	if w.has(due) {
		s.lat = append(s.lat, latency{due, float64(now-due) / 1e6})
		if s.traced && s.hand[seq] > 0 {
			s.transit = append(s.transit, float64(now-s.hand[seq])/1e3)
		}
	}
	if s.credit != nil {
		select {
		case s.credit <- now:
		default:
		}
	}
}
