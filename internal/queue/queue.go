// Package queue implements the MessageQueue abstraction of thesis §6.2: the
// channel object through which all streamlet communication flows. A queue
// carries message identifiers (the system passes messages by reference
// through a central pool, §6.7) together with their byte sizes so that the
// channel's buffer attribute — expressed in KBytes (§4.2.2) — can be
// enforced.
//
// Asynchronous queues are bounded FIFO buffers whose postMessage waits up
// to a grace period when full and then drops the message (Figure 6-9);
// synchronous queues are zero-length rendezvous buffers that accept a value
// only if it can be delivered immediately. The five channel categories
// (S, BB, BK, KB, KK) govern what happens to pending units on disconnect.
//
// The implementation is built for the steady-state forward path: items live
// in a ring buffer (no head retention, no per-item allocation once the ring
// has grown to the working size), blocking waits select directly on the
// caller's stop channel (no bridge goroutine per wait), timed waits draw
// timers from a shared pool, and wait-time histograms are sampled so an
// uncontended Post/Fetch pays no clock read and no histogram lock.
package queue

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mobigate/internal/mcl"
	"mobigate/internal/obs"
)

// Gateway-wide queue metrics (aggregated across queues to bound series
// cardinality; per-queue occupancy remains available via Stats/Len).
var (
	mPostTotal   = obs.DefaultCounter(obs.MQueuePostTotal)
	mFetchTotal  = obs.DefaultCounter(obs.MQueueFetchTotal)
	mDropTotal   = obs.DefaultCounter(obs.MQueueDropTotal)
	mPostWait    = obs.DefaultHistogram(obs.MQueuePostWaitSeconds, nil)
	mFetchWait   = obs.DefaultHistogram(obs.MQueueFetchWaitSeconds, nil)
	mQueuedMsgs  = obs.DefaultIntGauge(obs.MQueueQueuedMessages)
	mQueuedBytes = obs.DefaultIntGauge(obs.MQueueQueuedBytes)

	// Batch data-plane metrics: the size histograms record how many items
	// each PostN/FetchN moved per lock acquisition (values are counts, not
	// seconds), and the flush counter tallies batched post flushes.
	mBatchPostSize  = obs.DefaultHistogram(obs.MBatchPostSize, nil)
	mBatchFetchSize = obs.DefaultHistogram(obs.MBatchFetchSize, nil)
	mBatchFlushes   = obs.DefaultCounter(obs.MBatchFlushesTotal)
)

// obsSampleShift controls wait-histogram sampling: 1 in 2^obsSampleShift
// Post/Fetch operations measures its wall-clock wait and records it. The
// quantile window stays representative while the other operations skip both
// time.Now calls and the histogram lock.
const obsSampleShift = 6

// Errors returned by queue operations.
var (
	// ErrDropped reports that postMessage timed out on a full queue and the
	// message was dropped (the slow-streamlet policy of §6.7).
	ErrDropped = errors.New("queue: full, message dropped")
	// ErrClosed reports an operation on a closed queue.
	ErrClosed = errors.New("queue: closed")
	// ErrDetachRefused reports a detach forbidden by the channel category.
	ErrDetachRefused = errors.New("queue: category forbids disconnecting this side")
	// ErrCanceled reports that the caller's stop channel fired.
	ErrCanceled = errors.New("queue: operation canceled")
)

// DefaultDropTimeout is the grace period T of Figure 6-9 that a producer
// waits on a full queue before dropping the message.
const DefaultDropTimeout = 50 * time.Millisecond

// Item is one queued message reference.
type Item struct {
	MsgID string
	Size  int // body size in bytes, counted against the buffer capacity
	// Wait is how long the item sat in the queue; set when it is fetched.
	// The coordination plane copies it into the message's trace record.
	// Only measured while tracing is enabled (it feeds the trace hop).
	Wait time.Duration

	// enqueuedNs is monotonic nanoseconds on the obs clock (0 = not
	// stamped). A raw monotonic offset instead of a time.Time halves the
	// clock cost: reading the wall clock as well would buy nothing for a
	// duration.
	enqueuedNs int64
}

// EnqueuedNs returns the item's enqueue stamp on the obs monotonic clock
// (0 when tracing and spans were both off at enqueue time). Span recording
// uses it as the queue-wait span's start.
func (it Item) EnqueuedNs() int64 { return it.enqueuedNs }

// monoNow stamps on the shared obs monotonic clock so queue stamps subtract
// cleanly against span and flight-recorder stamps from other packages.
func monoNow() int64 { return obs.MonoNow() }

// Options configure a queue beyond its MCL channel declaration.
type Options struct {
	// Mode selects synchronous (rendezvous) or asynchronous (buffered).
	Mode mcl.ChannelMode
	// Category is the disconnect-semantics category.
	Category mcl.ChannelCategory
	// CapacityBytes bounds the queued bytes of an asynchronous queue.
	// Zero means the default 100 KBytes.
	CapacityBytes int
	// DropTimeout overrides DefaultDropTimeout; negative disables dropping
	// (post blocks indefinitely while full).
	DropTimeout time.Duration
}

// Queue is a MessageQueue. The zero value is not usable; use New.
type Queue struct {
	name string
	opts Options

	mu sync.Mutex

	// ring is a circular buffer: items occupy ring[head], ring[head+1], …
	// (mod len(ring)), count of them. Fetched slots are zeroed so the ring
	// never retains message-ID strings, and the backing array is reused
	// forever — steady-state Post/Fetch allocates nothing.
	ring       []Item
	head       int
	count      int
	queuedSize int

	// sig is the broadcast channel: waiters select on the current sig (plus
	// their stop channel and timer); a state change closes it and installs a
	// fresh one — but only when waiters exist, so an uncontended operation
	// never allocates a channel.
	sig     chan struct{}
	waiters int

	// Producer/consumer counts (the pCount/cCount of Figure 6-3).
	pCount int
	cCount int

	// waitingConsumers supports synchronous rendezvous: a sync post is
	// admitted only when a consumer is blocked in Fetch.
	waitingConsumers int

	closed  bool
	dropped uint64
	posted  uint64
	fetched uint64

	// acked is outside the mutex: Ack is on the consumer's per-message hot
	// path and touches no other queue state.
	acked atomic.Uint64

	obsTick atomic.Uint64 // wait-histogram sampling counter

	// onDequeue, when set (by tests), observes every fetched item under the
	// queue lock, so its call order is the true fetch order.
	onDequeue func(Item)
}

// New creates a queue named name (the channel instance variable).
func New(name string, opts Options) *Queue {
	if opts.CapacityBytes <= 0 {
		opts.CapacityBytes = mcl.DefaultBufferKB * 1024
	}
	if opts.DropTimeout == 0 {
		opts.DropTimeout = DefaultDropTimeout
	}
	return &Queue{name: name, opts: opts, sig: make(chan struct{})}
}

// FromDecl creates a queue from an MCL channel declaration.
func FromDecl(name string, d *mcl.ChannelDecl) *Queue {
	return New(name, Options{
		Mode:          d.Mode,
		Category:      d.Category,
		CapacityBytes: d.BufferKB * 1024,
	})
}

// Name returns the queue's instance name.
func (q *Queue) Name() string { return q.name }

// Mode returns the queue's channel mode.
func (q *Queue) Mode() mcl.ChannelMode { return q.opts.Mode }

// Category returns the queue's disconnect category.
func (q *Queue) Category() mcl.ChannelCategory { return q.opts.Category }

// sampleObs reports whether this operation should measure its wait.
func (q *Queue) sampleObs() bool {
	return q.obsTick.Add(1)&(1<<obsSampleShift-1) == 0
}

// timerPool recycles timers across timed waits (the drop grace period,
// FetchTimeout, and the streamlet supervisor's deadlines and retry
// backoffs) so a timed wait costs no timer allocation.
var timerPool sync.Pool

// AcquireTimer returns a pooled timer armed for d.
func AcquireTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// ReleaseTimer parks a timer for reuse.
//
// Audit note (Stop-vs-drain race): the classic pattern
//
//	if !t.Stop() { select { case <-t.C: default: } }
//
// is racy under the pre-1.23 timer runtime — when the timer fires
// concurrently with release, Stop returns false while the tick's send is
// still in flight, the non-blocking drain finds the channel momentarily
// empty, and the stale tick lands *after* the timer is pooled. The next
// borrower's Reset then delivers an instant spurious expiry (a premature
// Post drop or Fetch timeout). A blocking drain is not a fix either: it
// deadlocks under the 1.23+ semantics, where an unreceived tick is
// discarded rather than buffered. The module therefore requires go >= 1.23
// (see go.mod), under which Stop and Reset guarantee that no stale tick is
// ever delivered, and release needs nothing beyond Stop.
// TestTimerPoolNoStaleExpiry hammers the fire-vs-release window under
// -race as the regression gate.
func ReleaseTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// broadcastLocked wakes every current waiter by closing the generation
// channel. No-op (and no allocation) when nobody waits.
func (q *Queue) broadcastLocked() {
	if q.waiters > 0 {
		close(q.sig)
		q.sig = make(chan struct{})
	}
}

// waitLocked blocks until the queue is signaled, the caller's stop or gate
// channel fires, or the timer channel fires (nil channels never fire). The
// lock is released while blocked and reacquired before returning. Callers
// loop and re-check their predicate: a signal wake may be spurious for
// them.
func (q *Queue) waitLocked(stop, gate <-chan struct{}, timeout <-chan time.Time) (stopFired, timedOut bool) {
	q.waiters++
	sig := q.sig
	q.mu.Unlock()
	select {
	case <-sig:
	case <-stop:
		stopFired = true
	case <-gate:
		stopFired = true
	case <-timeout:
		timedOut = true
	}
	q.mu.Lock()
	q.waiters--
	return stopFired, timedOut
}

// Post inserts a message reference, implementing postMessage of Figure 6-9:
// if the queue is full the producer waits up to the drop timeout and then
// drops the message, returning ErrDropped. stop aborts the wait early
// (reconfiguration uses this to unblock suspended producers).
func (q *Queue) Post(msgID string, size int, stop <-chan struct{}) error {
	var start time.Time
	sampled := q.sampleObs()
	if sampled {
		start = time.Now()
	}
	err := q.post(msgID, size, stop)
	if sampled {
		mPostWait.Observe(time.Since(start).Seconds())
	}
	switch err {
	case nil:
		mPostTotal.Inc()
	case ErrDropped:
		mDropTotal.Inc()
	}
	return err
}

// post is a one-entry postN. The batch-size histogram and the flush
// counter stay with real PostN calls; Post keeps the single-op metrics.
func (q *Queue) post(msgID string, size int, stop <-chan struct{}) error {
	e := [1]Entry{{MsgID: msgID, Size: size}}
	_, _, _, err := q.postN(e[:], stop)
	return err
}

// appendLocked enqueues one item and maintains the occupancy accounting
// (per-queue counters plus the gateway-wide occupancy gauges).
func (q *Queue) appendLocked(msgID string, size int) {
	q.enqueueLocked(msgID, size)
	mQueuedMsgs.Add(1)
	mQueuedBytes.Add(int64(size))
}

// enqueueLocked is the gauge-free enqueue core: ring insert, stamps, and
// per-queue counters. PostN batches the gateway-wide gauge updates around
// it so a whole batch costs two gauge atomics instead of 2·n.
func (q *Queue) enqueueLocked(msgID string, size int) {
	spans := obs.SpansEnabled()
	var nowNs int64
	if spans || obs.TracingEnabled() {
		// The enqueue timestamp feeds the trace hop's queue-wait term and
		// the queue span's start; with both consumers off nothing reads it,
		// so skip the clock read.
		nowNs = monoNow()
	}
	q.enqueueFlagsLocked(msgID, size, spans, nowNs)
}

// enqueueFlagsLocked is enqueueLocked with the observability toggles and the
// clock read hoisted to the caller: a batch loop loads the toggles and reads
// the clock once per batch instead of per message (the whole batch arrives
// at one instant, so one timestamp is the honest one). nowNs == 0 means
// tracing and spans are both off and no stamp is wanted.
func (q *Queue) enqueueFlagsLocked(msgID string, size int, spans bool, nowNs int64) {
	if q.count == len(q.ring) {
		q.growLocked()
	}
	i := q.head + q.count
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = Item{MsgID: msgID, Size: size}
	if nowNs != 0 {
		q.ring[i].enqueuedNs = nowNs
	}
	if spans {
		// Data-plane flight events ride the spans toggle: at full message
		// rate they would churn the ring past the control-plane record, and
		// the spans-off hot path stays free of the journaling cost.
		obs.FlightRecord(obs.FlightEnqueue, q.name, msgID, int64(size))
	}
	q.count++
	q.queuedSize += size
	q.posted++
}

// growLocked doubles the ring, unrolling it into FIFO order.
func (q *Queue) growLocked() {
	n := len(q.ring) * 2
	if n == 0 {
		n = 16
	}
	ring := make([]Item, n)
	k := copy(ring, q.ring[q.head:])
	copy(ring[k:], q.ring[:q.head])
	q.ring = ring
	q.head = 0
}

// postSyncLocked admits a value only when it can be delivered immediately:
// it waits for a blocked consumer, hands the item over, and returns once
// the consumer has taken it.
func (q *Queue) postSyncLocked(msgID string, size int, stop <-chan struct{}) error {
	for q.waitingConsumers == 0 || q.count > 0 {
		if q.closed {
			return ErrClosed
		}
		if stopFired, _ := q.waitLocked(stop, nil, nil); stopFired {
			return ErrCanceled
		}
	}
	q.appendLocked(msgID, size)
	q.broadcastLocked()
	// Wait until the rendezvous completes — that is, until THIS producer's
	// item leaves the ring. Checking q.count alone is wrong twice over: the
	// consumer counted by waitingConsumers may be a gated fetch that gets
	// retracted (cancellation wins) before taking the item, and when Close
	// or stop then aborts the wait, the producer reports failure — so the
	// caller reclaims the message — while the entry stays in the ring,
	// counted as posted and fetchable by a later drain. The abort paths must
	// retract the in-hand entry; and conversely a completed handoff must
	// report success even when another producer's item has since been
	// admitted or the queue has closed.
	for q.syncPendingLocked(msgID) {
		if q.closed {
			q.retractHeadLocked()
			return ErrClosed
		}
		if stopFired, _ := q.waitLocked(stop, nil, nil); stopFired {
			if q.syncPendingLocked(msgID) {
				q.retractHeadLocked()
			}
			return ErrCanceled
		}
	}
	return nil
}

// syncPendingLocked reports whether this producer's rendezvous item is still
// in the ring. A sync queue admits one item at a time (the admission loop
// requires count == 0), so the head item is the only candidate; message IDs
// are pool-minted and unique among concurrent posts.
func (q *Queue) syncPendingLocked(msgID string) bool {
	return q.count > 0 && q.ring[q.head].MsgID == msgID
}

// retractHeadLocked takes back the head item without counting it as
// fetched: the producer is withdrawing an entry whose handoff never
// completed, so it must vanish from the posted accounting too (the caller
// is about to report the post as failed). Gauge handling mirrors
// takeNLocked's closed-queue rule — Close already removed residual items
// from the gateway-wide gauges.
func (q *Queue) retractHeadLocked() {
	it := q.ring[q.head]
	q.ring[q.head] = Item{} // release the msgID string
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.count--
	q.queuedSize -= it.Size
	q.posted--
	if !q.closed {
		mQueuedMsgs.Add(-1)
		mQueuedBytes.Add(-int64(it.Size))
	}
	q.broadcastLocked()
}

// Fetch removes and returns the oldest message reference, blocking until
// one is available, the queue closes (ok=false), or stop fires (ok=false).
func (q *Queue) Fetch(stop <-chan struct{}) (Item, bool) {
	var start time.Time
	sampled := q.sampleObs()
	if sampled {
		start = time.Now()
	}
	it, ok := q.fetch(stop, nil, nil)
	if ok && sampled {
		mFetchWait.Observe(time.Since(start).Seconds())
	}
	return it, ok
}

// FetchGated is Fetch with a second abort channel, the gate. A consumer
// that can be suspended mid-wait (a paused streamlet's pump) passes its
// pause gate here: when the gate fires the fetch is retracted without
// consuming an item — even one that raced in — so a suspended consumer
// stops pulling work and its upstream queue depth becomes observable to a
// reconfiguration drain. ok=false means stop fired, the gate fired, or the
// queue closed empty; callers tell the cases apart by inspecting their own
// channels.
func (q *Queue) FetchGated(stop, gate <-chan struct{}) (Item, bool) {
	return q.fetch(stop, gate, nil)
}

// FetchTimeout is Fetch with a deadline instead of a stop channel: it waits
// up to d for an item, ok=false on timeout or close. The wait reuses a
// pooled timer, so a timed receive costs no goroutine and no channel
// allocation (Outlet.Receive is built on this).
func (q *Queue) FetchTimeout(d time.Duration) (Item, bool) {
	timer := AcquireTimer(d)
	it, ok := q.fetch(nil, nil, timer.C)
	ReleaseTimer(timer)
	return it, ok
}

// fetch is a one-item fetchN (see post for the metric split).
func (q *Queue) fetch(stop, gate <-chan struct{}, timeout <-chan time.Time) (Item, bool) {
	var dst [1]Item
	if q.fetchN(dst[:], stop, gate, timeout) == 0 {
		return Item{}, false
	}
	return dst[0], true
}

// TryFetch removes and returns the oldest message reference without
// blocking.
func (q *Queue) TryFetch() (Item, bool) {
	var dst [1]Item
	if q.tryFetchN(dst[:]) == 0 {
		return Item{}, false
	}
	return dst[0], true
}

// dequeueFlagsLocked is the gauge- and broadcast-free dequeue core, with
// the spans toggle read by the caller and the clock read cached across a
// batch drain: *nowNs is filled on the first stamped item and reused for
// the rest, since the whole batch leaves the queue at one instant.
func (q *Queue) dequeueFlagsLocked(spans bool, nowNs *int64) Item {
	it := q.ring[q.head]
	q.ring[q.head] = Item{} // release the msgID string
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.count--
	q.queuedSize -= it.Size
	q.fetched++
	if it.enqueuedNs != 0 {
		if *nowNs == 0 {
			*nowNs = monoNow()
		}
		it.Wait = time.Duration(*nowNs - it.enqueuedNs)
	}
	if spans {
		obs.FlightRecord(obs.FlightDequeue, q.name, it.MsgID, int64(it.Wait))
	}
	if q.onDequeue != nil {
		q.onDequeue(it)
	}
	return it
}

func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Len returns the number of queued messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// QueuedBytes returns the byte total of queued messages.
func (q *Queue) QueuedBytes() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queuedSize
}

// Empty reports len == 0; one of the streamlet-termination prerequisites of
// Figure 6-8.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// Ack records that a previously fetched message has been fully handled by
// its consumer. The posted→acked lifetime makes a message continuously
// visible to Outstanding — there is no instant where it is in neither the
// queue nor a consumer's accounting, which the Figure 6-8 termination
// check depends on.
func (q *Queue) Ack() {
	q.acked.Add(1)
}

// Outstanding returns posted − acked: messages enqueued but not yet fully
// handled (still queued, in a consumer handoff, or being processed).
func (q *Queue) Outstanding() int64 {
	q.mu.Lock()
	posted := q.posted
	q.mu.Unlock()
	return int64(posted) - int64(q.acked.Load())
}

// InFlight returns fetched − acked: messages taken out of the queue whose
// handling has not completed.
func (q *Queue) InFlight() int64 {
	q.mu.Lock()
	fetched := q.fetched
	q.mu.Unlock()
	return int64(fetched) - int64(q.acked.Load())
}

// Stats returns lifetime posted/fetched/dropped counters.
func (q *Queue) Stats() (posted, fetched, dropped uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.posted, q.fetched, q.dropped
}

// IncProducer / DecProducer / IncConsumer / DecConsumer maintain the
// pCount/cCount attachment counters of Figure 6-3.
func (q *Queue) IncProducer() { q.mu.Lock(); q.pCount++; q.mu.Unlock() }
func (q *Queue) IncConsumer() { q.mu.Lock(); q.cCount++; q.mu.Unlock() }

func (q *Queue) DecProducer() {
	q.mu.Lock()
	if q.pCount > 0 {
		q.pCount--
	}
	q.mu.Unlock()
}

func (q *Queue) DecConsumer() {
	q.mu.Lock()
	if q.cCount > 0 {
		q.cCount--
	}
	q.mu.Unlock()
}

// Counts returns the current producer and consumer attachment counts.
func (q *Queue) Counts() (producers, consumers int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pCount, q.cCount
}

// Close marks the queue closed and wakes all waiters. Pending items remain
// fetchable via TryFetch.
//
// Close also reconciles the gateway-wide occupancy gauges: residual items
// stop counting as queued the moment the queue closes, whether they are
// later drained via TryFetch (takeNLocked skips the gauges on a closed
// queue) or abandoned with the queue. Without this, session churn leaks the
// residue into mobigate_queue_queued_{messages,bytes} forever.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		mQueuedMsgs.Add(-int64(q.count))
		mQueuedBytes.Add(-int64(q.queuedSize))
		q.broadcastLocked()
	}
	q.mu.Unlock()
}

// Closed reports whether Close was called.
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// DetachSide identifies which end of the channel is being disconnected.
type DetachSide int

const (
	// SourceSide is the producer (writer) end.
	SourceSide DetachSide = iota
	// SinkSide is the consumer (reader) end.
	SinkSide
)

func (s DetachSide) String() string {
	if s == SourceSide {
		return "source"
	}
	return "sink"
}

// Detach applies the category semantics of §4.2.2 when one end of the
// channel is disconnected. It returns whether the *other* end must also be
// disconnected (BB), and an error when the category forbids the detach (KK,
// or S with pending units).
func (q *Queue) Detach(side DetachSide) (detachOther bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch q.opts.Category {
	case mcl.CatKK:
		return false, fmt.Errorf("%w: %s end of KK channel %s", ErrDetachRefused, side, q.name)
	case mcl.CatS:
		if q.count > 0 {
			return false, fmt.Errorf("queue %s: S channel has %d pending units; drain before disconnecting",
				q.name, q.count)
		}
		return false, nil
	case mcl.CatBB:
		return true, nil
	case mcl.CatBK:
		// Break-keep: disconnecting the source keeps the sink connected so
		// pending units drain; disconnecting the sink releases the source.
		return false, nil
	case mcl.CatKB:
		return false, nil
	}
	return false, nil
}
