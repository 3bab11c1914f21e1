package main

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"mobigate/internal/mime"
)

func TestQuantileRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	cases := []struct {
		n     int
		q     float64
		value float64
	}{
		{1000, 0.99, 990}, // exactly ten samples beyond
		{2000, 0.99, 1980},
		{100, 0.99, 90}, // lowered: only 10 may lie beyond
		{100, 0.50, 50},
		{101, 0.50, 51},
		{5, 0.99, 3}, // too few for a tail: the median
	}
	for _, c := range cases {
		p := quantile(seq(c.n), c.q)
		if p.Value != c.value || p.N != c.n {
			t.Errorf("quantile(1..%d, %v) = %v of %d, want %v", c.n, c.q, p.Value, p.N, c.value)
		}
		if c.q > 0.5 && c.n >= minTail*2 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > p.Value {
					beyond++
				}
			}
			if beyond < minTail {
				t.Errorf("quantile(1..%d, %v): %d samples beyond, want >= %d", c.n, c.q, beyond, minTail)
			}
		}
	}
}

// relayStub does what relay6 does to a message body and headers, so its
// output passes the text corpus check (the client's verify peer would
// strip the signature).
func relayStub(m *mime.Message) *mime.Message {
	m.SetBody(append(append([]byte(nil), m.Body()...), footerText...))
	m.SetHeader("X-Redirector-Hops", "4")
	return m
}

// TestStallInflatesLaterLatency: a gateway that stalls for 100 ms must
// show in the latency of every message due during the stall, because
// latency runs from the due time, not from when the stalled generator
// finally got to send (no coordinated omission).
func TestStallInflatesLaterLatency(t *testing.T) {
	cp := textCorpus(1)
	c := clock{epoch: time.Now()}
	const period, span, stall = int64(time.Millisecond), int64(200 * time.Millisecond), 100 * time.Millisecond
	start := c.now() + int64(5*time.Millisecond)
	w := window{from: start, to: start + span}
	s := newSess(1, start, 0, false)
	go s.openLoop(c, &cp, start, w.to, period, rand.New(rand.NewSource(1)))

	tl := &tally{}
	first := true
	for m := range s.feed {
		if first {
			time.Sleep(stall) // the stub gateway stalls once
			first = false
		}
		s.deliver(c, w, &cp, tl, relayStub(m))
	}
	close(s.done)

	if len(s.corrupt) > 0 {
		t.Fatalf("stub deliveries failed the check: %v", s.corrupt)
	}
	if want := arrivals(1, span, period); s.offered != want || s.delivered != want {
		t.Fatalf("offered %d, delivered %d, want %d each: the schedule must not slow down", s.offered, s.delivered, want)
	}
	var lat []float64
	for _, l := range s.lat {
		lat = append(lat, l.ms)
	}
	p50, p99 := quantile(lat, 0.5), quantile(append([]float64(nil), lat...), 0.99)
	if p99.Value < 80 {
		t.Errorf("p99 latency %.1f ms: the stall must show in messages due while it lasted", p99.Value)
	}
	if p50.Value < 1 {
		t.Errorf("p50 latency %.2f ms: a quarter of the messages were due during the stall", p50.Value)
	}
}

// arrivals is how many messages openLoop schedules within span when its
// gaps come from a generator seeded with seed.
func arrivals(seed, span, period int64) int {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for due := int64(0); due < span; due += int64(rng.ExpFloat64() * float64(period)) {
		n++
	}
	return n
}

// TestLossAndCorruptionRaiseFailedRatio: a message that never arrives, or
// arrives corrupted, reordered or duplicated, is not delivered intact.
func TestLossAndCorruptionRaiseFailedRatio(t *testing.T) {
	cp := textCorpus(2)
	c := clock{epoch: time.Now()}
	w := window{from: 0, to: 1 << 62}
	s := newSess(1, 0, 0, false)
	var got []*mime.Message
	done := make(chan struct{})
	go func() {
		for m := range s.feed {
			got = append(got, relayStub(m))
		}
		close(done)
	}()
	s.burst(c, &cp, 10)
	<-done
	tl := &tally{}

	deliver := func(m *mime.Message) { s.deliver(c, w, &cp, tl, m) }
	deliver(got[0])
	deliver(got[2]) // 1 is lost
	deliver(got[2]) // duplicate
	corrupted := got[3].Clone()
	corrupted.Body()[7] ^= 0xff
	deliver(corrupted)
	deliver(got[5])
	deliver(got[4]) // reordered
	for _, m := range got[6:] {
		deliver(m)
	}
	p := &passResult{offered: s.offered, intact: s.delivered}
	if s.offered != 10 || s.delivered != 7 {
		t.Fatalf("offered %d, intact %d; want 10, 7", s.offered, s.delivered)
	}
	if got, want := p.failedRatio(), 0.3; got != want {
		t.Errorf("failed_ratio %v, want %v", got, want)
	}
	if len(s.corrupt) != 3 {
		t.Errorf("%d corrupt deliveries flagged, want 3 (duplicate, corrupted, reordered): %v", len(s.corrupt), s.corrupt)
	}
	if g := s.gap(w); !strings.Contains(g, "3 of 10 offered") || !strings.Contains(g, "first 1 (due") {
		t.Errorf("gap report %q: want 3 of 10 missing, the first being message 1", g)
	}
}

// TestBoundHoldsOriginAndCountsWait: while the gateway's queues hold more
// than the session's bound, the generator holds the next message, and the
// hold counts in that message's latency because it runs from the due time.
func TestBoundHoldsOriginAndCountsWait(t *testing.T) {
	cp := textCorpus(3)
	c := clock{epoch: time.Now()}
	const period, span, hold = int64(time.Millisecond), int64(20 * time.Millisecond), 50 * time.Millisecond
	start := c.now() + int64(5*time.Millisecond)
	w := window{from: start, to: start + span}
	s := newSess(1, start, 0, false)
	s.capBytes = 1 << 10
	queuedBytes.Add(1 << 20) // queues look full
	go func() {
		time.Sleep(hold)
		queuedBytes.Add(-(1 << 20))
	}()
	go s.openLoop(c, &cp, start, w.to, period, rand.New(rand.NewSource(2)))

	tl := &tally{}
	for m := range s.feed {
		s.deliver(c, w, &cp, tl, relayStub(m))
	}
	close(s.done)

	if want := arrivals(2, span, period); s.offered != want || s.delivered != want {
		t.Fatalf("offered %d, delivered %d, want %d each", s.offered, s.delivered, want)
	}
	if s.held != 1 || s.capOff {
		t.Errorf("held %d messages (capOff %v), want the first one held and the bound kept", s.held, s.capOff)
	}
	if first := s.lat[0].ms; first < 40 {
		t.Errorf("first message latency %.1f ms: the %v hold must count from its due time", first, hold)
	}
}

// TestSettleWaitsForIdleQueues: a long session closes its feed only after
// the gateway's queues have stayed empty for settleQuiet.
func TestSettleWaitsForIdleQueues(t *testing.T) {
	s := newSess(1, 0, 0, false)
	cleared := make(chan time.Time, 1)
	queuedBytes.Add(1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		queuedBytes.Add(-1)
		cleared <- time.Now()
	}()
	s.settle()
	ret := time.Now()
	select {
	case at := <-cleared:
		if quiet := ret.Sub(at); quiet < settleQuiet {
			t.Errorf("settle returned %v after the queues emptied, want at least %v", quiet, settleQuiet)
		}
	default:
		t.Errorf("settle returned while the queues were busy")
	}
}
