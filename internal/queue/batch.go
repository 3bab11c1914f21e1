package queue

// Batched queue operations: PostN and FetchN move up to a whole batch of
// message references under ONE lock acquisition and ONE generation
// broadcast, instead of paying lock + broadcast + two gauge atomics per
// message. FIFO order, the posted→acked conservation accounting, and the
// gateway-wide occupancy gauges are preserved exactly; the batch paths
// allocate nothing in steady state (callers own the Entry/Item buffers).
//
// The batch lifecycle is explicit: a producer accumulates Entry values and
// flushes them with one PostN; a consumer drains with one FetchN into a
// reusable Item slice and settles with one AckN. A PostN that fills the
// queue mid-batch behaves exactly like the equivalent sequence of single
// Posts — it wakes consumers for what it has already appended, waits the
// Figure 6-9 grace per blocked entry, drops entries individually on
// timeout, and keeps going (later entries may fit once consumers drain).

import (
	"time"

	"mobigate/internal/mcl"
	"mobigate/internal/obs"
)

// Entry is one message reference in a batched post.
type Entry struct {
	MsgID string
	Size  int
}

// PostN inserts a batch of message references in order. In steady state the
// whole batch is appended under one lock acquisition with one broadcast and
// one pair of gauge updates. Returns how many entries were posted; failed
// (nil when everything posted) lists the indices of entries that were not,
// in ascending order. err is ErrDropped when at least one entry timed out
// on a full queue (the rest were still attempted), or ErrClosed/ErrCanceled
// when the batch was cut short; posted + len(failed) == len(entries)
// always. A one-entry PostN is a single-item post: it feeds the post
// metrics but not the batch-size histogram, the flush counter, or the
// flight recorder's batch-flush entry.
func (q *Queue) PostN(entries []Entry, stop <-chan struct{}) (posted int, failed []int, err error) {
	if len(entries) == 0 {
		return 0, nil, nil
	}
	var start time.Time
	sampled := q.sampleObs()
	if sampled {
		start = time.Now()
	}
	var dropped int
	posted, dropped, failed, err = q.postN(entries, stop)
	if sampled {
		mPostWait.Observe(time.Since(start).Seconds())
	}
	if posted > 0 {
		mPostTotal.Add(uint64(posted))
	}
	if dropped > 0 {
		mDropTotal.Add(uint64(dropped))
	}
	if len(entries) > 1 {
		mBatchPostSize.Observe(float64(posted))
		mBatchFlushes.Inc()
		if obs.SpansEnabled() {
			obs.FlightRecord(obs.FlightBatchFlush, q.name, "", int64(posted))
		}
	}
	return posted, failed, err
}

func (q *Queue) postN(entries []Entry, stop <-chan struct{}) (posted, dropped int, failed []int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, 0, appendRange(nil, 0, len(entries)), ErrClosed
	}

	if q.opts.Mode == mcl.Sync {
		// Rendezvous admits one unit at a time by construction; run the
		// single-post protocol per entry under the one lock hold.
		for i := range entries {
			if serr := q.postSyncLocked(entries[i].MsgID, entries[i].Size, stop); serr != nil {
				return posted, 0, appendRange(failed, i, len(entries)), serr
			}
			posted++
		}
		return posted, 0, nil, nil
	}

	// Gauge updates and the consumer wakeup are deferred and settled once
	// per batch; flush runs early whenever the batch must block so already-
	// appended items stay visible to the consumers we are waiting on.
	spans := obs.SpansEnabled()
	stamp := spans || obs.TracingEnabled()
	var nowNs int64 // one clock read per batch; re-read after any block
	pendingMsgs, pendingBytes := 0, 0
	flush := func() {
		if pendingMsgs > 0 {
			mQueuedMsgs.Add(int64(pendingMsgs))
			mQueuedBytes.Add(int64(pendingBytes))
			pendingMsgs, pendingBytes = 0, 0
			q.broadcastLocked()
		}
	}
	var timer *time.Timer
	for i := range entries {
		e := entries[i]
		if q.queuedSize+e.Size > q.opts.CapacityBytes && q.count > 0 {
			flush()
			nowNs = 0 // blocking makes the batch timestamp stale
			if q.opts.DropTimeout >= 0 {
				// Each blocked entry gets its own grace period, exactly as a
				// sequence of single Posts would (Figure 6-9).
				if timer == nil {
					timer = AcquireTimer(q.opts.DropTimeout)
				} else {
					timer.Reset(q.opts.DropTimeout)
				}
				for q.queuedSize+e.Size > q.opts.CapacityBytes && q.count > 0 && !q.closed {
					stopFired, timedOut := q.waitLocked(stop, nil, timer.C)
					if stopFired || timedOut {
						break
					}
				}
			} else {
				for q.queuedSize+e.Size > q.opts.CapacityBytes && q.count > 0 && !q.closed {
					if stopFired, _ := q.waitLocked(stop, nil, nil); stopFired {
						releaseBatchTimer(timer)
						return posted, dropped, appendRange(failed, i, len(entries)), ErrCanceled
					}
				}
			}
			if q.closed {
				releaseBatchTimer(timer)
				return posted, dropped, appendRange(failed, i, len(entries)), ErrClosed
			}
			if stopped(stop) {
				releaseBatchTimer(timer)
				return posted, dropped, appendRange(failed, i, len(entries)), ErrCanceled
			}
			if q.queuedSize+e.Size > q.opts.CapacityBytes && q.count > 0 {
				// Grace expired: drop this entry and keep going — later
				// entries may fit once consumers drain.
				q.dropped++
				dropped++
				failed = append(failed, i)
				continue
			}
		}
		if stamp && nowNs == 0 {
			nowNs = monoNow()
		}
		q.enqueueFlagsLocked(e.MsgID, e.Size, spans, nowNs)
		posted++
		pendingMsgs++
		pendingBytes += e.Size
	}
	flush()
	releaseBatchTimer(timer)
	if dropped > 0 {
		err = ErrDropped
	}
	return posted, dropped, failed, err
}

func releaseBatchTimer(t *time.Timer) {
	if t != nil {
		ReleaseTimer(t)
	}
}

// appendRange appends the indices [from, to) to failed.
func appendRange(failed []int, from, to int) []int {
	for i := from; i < to; i++ {
		failed = append(failed, i)
	}
	return failed
}

// FetchN removes up to len(dst) of the oldest message references in FIFO
// order, blocking until at least one is available. The whole drain happens
// under one lock acquisition with one producer broadcast and one pair of
// gauge updates. Returns how many items were written into dst; 0 means the
// queue closed empty or stop fired. The caller owns dst, so a steady-state
// FetchN allocates nothing.
func (q *Queue) FetchN(dst []Item, stop <-chan struct{}) int {
	var start time.Time
	sampled := q.sampleObs()
	if sampled {
		start = time.Now()
	}
	n := q.fetchN(dst, stop, nil, nil)
	if n > 0 && sampled {
		mFetchWait.Observe(time.Since(start).Seconds())
	}
	observeDrain(dst, n)
	return n
}

// FetchNGated is FetchN with the pause-gate semantics of FetchGated: when
// the gate fires the fetch is retracted without consuming anything, even
// items that raced in (cancellation wins, as in the single-item path).
func (q *Queue) FetchNGated(dst []Item, stop, gate <-chan struct{}) int {
	n := q.fetchN(dst, stop, gate, nil)
	observeDrain(dst, n)
	return n
}

// TryFetchN removes up to len(dst) items without blocking, returning how
// many were taken.
func (q *Queue) TryFetchN(dst []Item) int {
	n := q.tryFetchN(dst)
	observeDrain(dst, n)
	return n
}

// observeDrain feeds the drain-size histogram for a batched fetch. A fetch
// into a one-item buffer is a single-item operation and is not counted.
func observeDrain(dst []Item, n int) {
	if n > 0 && len(dst) > 1 {
		mBatchFetchSize.Observe(float64(n))
	}
}

func (q *Queue) tryFetchN(dst []Item) int {
	if len(dst) == 0 {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return 0
	}
	return q.takeNLocked(dst)
}

func (q *Queue) fetchN(dst []Item, stop, gate <-chan struct{}, timeout <-chan time.Time) int {
	if len(dst) == 0 {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	// Cancellation wins over an available item, for the same reason as in
	// fetch: a suspended or detached consumer must not steal messages
	// destined for its replacement.
	if stopped(stop) || stopped(gate) {
		return 0
	}
	for q.count == 0 {
		if q.closed {
			return 0
		}
		q.waitingConsumers++
		q.broadcastLocked() // wake sync producers waiting for a consumer
		stopFired, timedOut := q.waitLocked(stop, gate, timeout)
		q.waitingConsumers--
		if stopFired || timedOut || stopped(stop) || stopped(gate) {
			return 0
		}
	}
	return q.takeNLocked(dst)
}

// takeNLocked drains min(count, len(dst)) items and settles the batch's
// counters, gauges, and producer wakeup in one step.
func (q *Queue) takeNLocked(dst []Item) int {
	n := q.count
	if n > len(dst) {
		n = len(dst)
	}
	spans := obs.SpansEnabled()
	var nowNs int64 // filled on the first stamped item, shared by the batch
	bytes := 0
	for i := 0; i < n; i++ {
		dst[i] = q.dequeueFlagsLocked(spans, &nowNs)
		bytes += dst[i].Size
	}
	mFetchTotal.Add(uint64(n))
	if !q.closed {
		// Residual items already left the gateway-wide gauges at Close;
		// draining them must not subtract twice.
		mQueuedMsgs.Add(int64(-n))
		mQueuedBytes.Add(int64(-bytes))
	}
	q.broadcastLocked()
	return n
}

// AckN records n completed messages in one atomic add — the batch worker's
// counterpart of Ack, with identical conservation semantics.
func (q *Queue) AckN(n int) {
	if n > 0 {
		q.acked.Add(uint64(n))
	}
}
