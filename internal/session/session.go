// Package session maps many logical client sessions onto a small number of
// shared data planes — the inverse of the front-end's per-connection
// DeployInstance model, where every client pays for its own streamlet
// chain. Here one deployed chain (or a pool of them) serves thousands of
// sessions: a Session is pure accounting — an identifier, a byte/message
// quota, and a lifecycle — while the messages themselves flow through the
// shared plane's ordinary gated queues.
//
// Three protection layers keep a shared plane fair and bounded:
//
//   - per-session quotas (bytes and messages outstanding), enforced at
//     Post/PostN before the message reaches the shared queue, so one
//     runaway session cannot occupy the plane's whole buffer (the §4.2.2
//     buffer-occupancy bound applied per session instead of per queue);
//   - a load-shedder: once the plane's queue occupancy crosses the
//     configured high-water mark, posts from admitted sessions are shed
//     (fail fast) instead of entering the §6.2 wait-then-drop grace path,
//     which would stall every session behind the saturated buffer;
//   - an admission controller: new sessions are refused outright when the
//     table is at capacity or the target plane is already shedding, so
//     connect storms degrade by rejecting newcomers rather than by
//     dragging down sessions already in flight.
//
// Both shedding layers feed the mobigate_session_* counters; deliveries
// feed the per-plane SLO tracker in internal/obs when a budget is
// configured. The steady-state hot path (Admit/Post/Release) performs only
// atomic arithmetic plus the underlying queue operation — no allocation,
// no map access, no time.Now.
package session

import (
	"errors"
	"fmt"
	"sync/atomic"

	"mobigate/internal/obs"
	"mobigate/internal/queue"
)

// Shedding and lifecycle errors. All are terminal for the message (or the
// connect attempt), never for the session.
var (
	// ErrAdmission is returned by Connect when the admission controller
	// refuses a new session (table full or target plane saturated).
	ErrAdmission = errors.New("session: admission refused")
	// ErrQuota is returned by Post/PostN when the message would exceed the
	// session's outstanding byte or message quota.
	ErrQuota = errors.New("session: quota exhausted")
	// ErrShed is returned by Post/PostN when the shared plane is above its
	// high-water mark and the load-shedder dropped the message.
	ErrShed = errors.New("session: plane saturated, message shed")
	// ErrClosed is returned by Post/PostN on a draining or closed session.
	ErrClosed = errors.New("session: closed")
	// ErrDuplicate is returned by Connect when the id is already live.
	ErrDuplicate = errors.New("session: id already connected")
)

// State is a session lifecycle stage. Transitions only move forward
// (Active ⇄ Idle excepted): Connect → Active ⇄ Idle → Draining → Closed.
type State int32

const (
	// StateActive: admitted and recently posting.
	StateActive State = iota + 1
	// StateIdle: admitted but quiet past the sweep threshold; the first
	// Post promotes it back to Active.
	StateIdle
	// StateDraining: disconnected with messages still in flight on the
	// plane; posts are refused, releases still accounted.
	StateDraining
	// StateClosed: fully drained and removed. Terminal.
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateIdle:
		return "idle"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state-%d", int32(s))
}

var (
	mSessConnects    = obs.DefaultCounter(obs.MSessionConnectsTotal)
	mSessDisconnects = obs.DefaultCounter(obs.MSessionDisconnectsTotal)
	mSessAdmitShed   = obs.DefaultCounter(obs.MSessionAdmitShedTotal)
	mSessLoadShed    = obs.DefaultCounter(obs.MSessionLoadShedTotal)
	mSessQuotaShed   = obs.DefaultCounter(obs.MSessionQuotaShedTotal)
	mSessSLOViol     = obs.DefaultCounter(obs.MSessionSLOViolationsTotal)
	mSessLive        = obs.DefaultIntGauge(obs.MSessionLive)
	mSessDraining    = obs.DefaultIntGauge(obs.MSessionDraining)
	mSessQueued      = obs.DefaultIntGauge(obs.MSessionQueuedBytes)
)

// Session is one logical client session multiplexed onto a shared plane.
// All methods are safe for concurrent use. The struct is a fixed ~160
// bytes regardless of traffic — session state is accounting, never
// buffered messages (those live in the plane's queue and the message
// pool) — which is what keeps per-session memory flat at high counts.
type Session struct {
	id    string
	table *Table
	plane *Plane

	// hash is the table's FNV-1a of the id, reused for the heavy-hitter
	// shard pick; slot is the per-session SLO window, non-nil only for the
	// ~1/rate of sessions the deterministic sampler selects. Both are
	// written before the session is published and never after.
	hash uint32
	slot *obs.SessionSlot

	state atomic.Int32

	// Outstanding-quota accounting: reserved at Admit, returned at Release
	// (delivery) or rollback (failed post).
	queuedBytes atomic.Int64
	queuedMsgs  atomic.Int64

	// lastActive is the obs monotonic stamp of the most recent admit; the
	// idle sweep compares against it.
	lastActive atomic.Int64

	posted    atomic.Uint64
	delivered atomic.Uint64
	shed      atomic.Uint64
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Plane returns the shared plane this session is mapped onto.
func (s *Session) Plane() *Plane { return s.plane }

// State returns the current lifecycle stage.
func (s *Session) State() State { return State(s.state.Load()) }

// Sampled reports whether the deterministic SLO sampler selected this
// session (its delivery latencies feed a per-session quantile window on
// /sessions).
func (s *Session) Sampled() bool { return s.slot != nil }

// Outstanding returns the messages admitted but not yet released.
func (s *Session) Outstanding() int64 { return s.queuedMsgs.Load() }

// OutstandingBytes returns the bytes admitted but not yet released.
func (s *Session) OutstandingBytes() int64 { return s.queuedBytes.Load() }

// Stats returns the session's lifetime message counts. Conservation holds
// at quiescence: posted == delivered + (rolled-back posts); shed counts
// messages refused before reaching the plane (quota or load shed).
func (s *Session) Stats() (posted, delivered, shed uint64) {
	return s.posted.Load(), s.delivered.Load(), s.shed.Load()
}

// Admit reserves quota for one message of the given size: it promotes an
// idle session, applies the load-shedder, and charges the byte and message
// quotas. Callers that admit successfully must either post the message to
// the plane and eventually Release it, or roll the reservation back with
// Unadmit. Post/PostN do all of this; Admit is exported for callers that
// drive the plane queue themselves (the server front-end posts through a
// stream inlet, not through Session.Post).
func (s *Session) Admit(size int) error {
	for {
		st := State(s.state.Load())
		if st == StateActive {
			break
		}
		if st == StateIdle {
			if s.state.CompareAndSwap(int32(StateIdle), int32(StateActive)) {
				break
			}
			continue
		}
		return ErrClosed
	}
	t := s.table
	if s.plane.queuedBytes() >= t.cfg.ShedBytes {
		s.shed.Add(1)
		t.loadShed.Add(1)
		mSessLoadShed.Inc()
		t.cfg.stats.ObserveShed(s.hash, s.id)
		return ErrShed
	}
	if s.queuedMsgs.Add(1) > t.cfg.QuotaMessages {
		s.queuedMsgs.Add(-1)
		s.shed.Add(1)
		t.quotaShed.Add(1)
		mSessQuotaShed.Inc()
		t.cfg.stats.ObserveShed(s.hash, s.id)
		return ErrQuota
	}
	if s.queuedBytes.Add(int64(size)) > t.cfg.QuotaBytes {
		s.queuedBytes.Add(int64(-size))
		s.queuedMsgs.Add(-1)
		s.shed.Add(1)
		t.quotaShed.Add(1)
		mSessQuotaShed.Inc()
		t.cfg.stats.ObserveShed(s.hash, s.id)
		return ErrQuota
	}
	mSessQueued.Add(int64(size))
	s.lastActive.Store(obs.MonoNow())
	return nil
}

// MarkPosted counts a message the caller posted to the plane itself after
// a successful Admit — the path for callers that post through a stream
// inlet (which pools the message body) rather than Session.Post.
func (s *Session) MarkPosted() {
	s.posted.Add(1)
	s.table.posted.Add(1)
}

// Unadmit rolls back a reservation whose message never reached the plane
// (the post failed or was abandoned). Not a delivery: the message neither
// counts as posted nor as delivered.
func (s *Session) Unadmit(size int) { s.release(size, false, 0) }

// Release returns one delivered message's reservation. latencyNs, when
// positive, is the message's end-to-end plane latency and feeds the
// plane's SLO chain. The final Release of a draining session completes its
// close.
func (s *Session) Release(size int, latencyNs int64) { s.release(size, true, latencyNs) }

func (s *Session) release(size int, delivered bool, latencyNs int64) {
	// All per-session observation happens BEFORE the outstanding-message
	// decrement: the final decrement is what lets finishClose return the
	// sampler slot to the pool, so observing first makes every Observe
	// happen-before the slot can be reused by another session.
	if delivered {
		s.delivered.Add(1)
		s.table.delivered.Add(1)
		s.table.cfg.stats.ObserveRelease(s.hash, s.id, int64(size))
		if latencyNs > 0 {
			if s.table.cfg.SLOBudget > 0 {
				obs.SLO().Observe(s.plane.name, latencyNs)
			}
			if s.slot != nil && s.slot.Observe(latencyNs, int64(s.table.cfg.SLOBudget)) {
				mSessSLOViol.Inc()
				s.table.cfg.stats.ObserveViolation(s.hash, s.id)
			}
		}
	}
	s.queuedBytes.Add(int64(-size))
	left := s.queuedMsgs.Add(-1)
	mSessQueued.Add(int64(-size))
	if left == 0 && State(s.state.Load()) == StateDraining {
		s.finishClose("drained")
	}
}

// Post admits one message against the session's quota and posts it to the
// shared plane's queue. The reservation is rolled back when the queue
// refuses the message (closed, canceled, or dropped after the §6.2 grace).
func (s *Session) Post(msgID string, size int, stop <-chan struct{}) error {
	if err := s.Admit(size); err != nil {
		return err
	}
	if err := s.plane.q.Post(msgID, size, stop); err != nil {
		s.Unadmit(size)
		return err
	}
	s.posted.Add(1)
	s.table.posted.Add(1)
	return nil
}

// PostN admits and posts a batch. Entries that fail admission (quota or
// load shed) are skipped, not retried; entries the queue refuses are
// rolled back. It returns how many entries reached the plane and how many
// were shed by this layer; err reports a queue-level failure (the batch
// may be partially posted).
func (s *Session) PostN(entries []queue.Entry, stop <-chan struct{}) (posted, shed int, err error) {
	// Admit the longest prefix that fits, then hand it to the queue as one
	// batched post; the rest of the batch is shed under the same class as
	// the entry that broke the prefix (a saturated plane or an exhausted
	// quota does not recover within one batch).
	fit := 0
	var admitErr error
	for _, e := range entries {
		if admitErr = s.Admit(e.Size); admitErr != nil {
			if admitErr == ErrClosed {
				return 0, 0, admitErr
			}
			break
		}
		fit++
	}
	shed = len(entries) - fit
	for i := fit + 1; i < len(entries); i++ {
		// The entry that failed admission was counted inside Admit; count
		// the tail it doomed without re-running admission per entry.
		s.shed.Add(1)
		s.table.cfg.stats.ObserveShed(s.hash, s.id)
		if admitErr == ErrShed {
			s.table.loadShed.Add(1)
			mSessLoadShed.Inc()
		} else {
			s.table.quotaShed.Add(1)
			mSessQuotaShed.Inc()
		}
	}
	if fit == 0 {
		return 0, shed, nil
	}
	// The queue guarantees n + len(failed) == fit, so rolling back exactly
	// the failed indices keeps the reservation accounting conserved.
	n, failed, qerr := s.plane.q.PostN(entries[:fit], stop)
	for _, i := range failed {
		s.Unadmit(entries[i].Size)
	}
	s.posted.Add(uint64(n))
	s.table.posted.Add(uint64(n))
	return n, shed, qerr
}

// beginDisconnect moves the session out of the admitted states. The caller
// has already removed it from the table.
func (s *Session) beginDisconnect() {
	for {
		st := State(s.state.Load())
		if st == StateDraining || st == StateClosed {
			return
		}
		if s.state.CompareAndSwap(int32(st), int32(StateDraining)) {
			break
		}
	}
	s.table.live.Add(-1)
	mSessLive.Add(-1)
	s.table.draining.Add(1)
	mSessDraining.Add(1)
	if s.queuedMsgs.Load() == 0 {
		s.finishClose("drained")
	}
}

// Abort force-completes a draining session whose remaining in-flight
// messages will never be released (the plane dropped them, or the consumer
// routing this session is gone). Only the disconnecting owner may call it,
// after no further Release calls can occur; outstanding reservations are
// reconciled so the table-wide gauges stay exact.
func (s *Session) Abort() {
	if State(s.state.Load()) != StateDraining {
		return
	}
	if b := s.queuedBytes.Swap(0); b != 0 {
		mSessQueued.Add(-b)
	}
	s.queuedMsgs.Store(0)
	s.finishClose("forced")
}

// finishClose performs the Draining → Closed transition exactly once.
func (s *Session) finishClose(how string) {
	if !s.state.CompareAndSwap(int32(StateDraining), int32(StateClosed)) {
		return
	}
	s.table.draining.Add(-1)
	mSessDraining.Add(-1)
	s.table.disconnects.Add(1)
	mSessDisconnects.Inc()
	// Safe to recycle: the closing path runs only after the final
	// outstanding-message decrement, and every slot Observe precedes its
	// own decrement (see release).
	s.table.cfg.stats.FreeSlot(s.slot)
	if obs.SpansEnabled() {
		// Lifecycle journaling follows the data-plane rule (see the flight
		// recorder's package comment): at session-churn rates an always-on
		// record would overwrite the control-plane history it contextualizes.
		obs.FlightRecord(obs.FlightSessionDisconnect, s.id, how, int64(s.delivered.Load()))
	}
}
