package streamlet

// This file is the streamlet supervisor: the coordination plane's fault
// boundary around Processor code. Every Process call runs behind a recover
// (a panicking service entity must never take down the gateway process) and
// optionally behind a per-message deadline; what happens to the failing
// message is a per-streamlet policy — fail, retry with capped backoff, drop,
// or bypass. Terminal fault outcomes are reported through the OnFault hook
// so the stream layer can raise ExecutionFault context events and self-heal
// through the Figure 7-4 reconfiguration protocol. Fault policy thus lives
// in the coordination plane, exogenous to service code, in the style of
// Reo-like exogenous coordination.

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"mobigate/internal/obs"
	"mobigate/internal/queue"
)

// Fault-supervision metrics (gateway-wide; per-streamlet counts are on the
// instance).
var (
	mFaultPanics   = obs.DefaultCounter(obs.MFaultPanicsTotal)
	mFaultStalls   = obs.DefaultCounter(obs.MFaultStallsTotal)
	mFaultRetries  = obs.DefaultCounter(obs.MFaultRetriesTotal)
	mFaultDropped  = obs.DefaultCounter(obs.MFaultDroppedTotal)
	mFaultBypassed = obs.DefaultCounter(obs.MFaultBypassedTotal)
)

// Policy selects what the supervisor does with a message whose Process call
// faulted (panicked, errored, or stalled past the deadline).
type Policy int

const (
	// PolicyFail is the default: the error reaches the ErrorHandler and
	// the message is dropped (panics and stalls are still contained — only
	// the message is lost, never the process).
	PolicyFail Policy = iota
	// PolicyRetry re-runs Process with capped exponential backoff, then
	// drops the message when attempts are exhausted.
	PolicyRetry
	// PolicyDrop drops the message immediately without retries.
	PolicyDrop
	// PolicyBypass forwards the input message downstream unprocessed, as
	// if the streamlet were a pass-through. Intended for transforming
	// streamlets whose output type admits the input type (compressors,
	// filters); the runtime does not append the peer ID for a bypassed
	// message, so peered reversal stays consistent.
	PolicyBypass
)

var policyNames = [...]string{"fail", "retry", "drop", "bypass"}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Supervision configures the fault boundary of one streamlet instance.
type Supervision struct {
	// Policy selects the recovery action for faulted messages.
	Policy Policy
	// MaxRetries bounds PolicyRetry re-executions (default 3).
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt (default 1ms). Backoff aborts promptly on End.
	RetryBackoff time.Duration
	// MaxBackoff caps the doubled backoff (default 50ms).
	MaxBackoff time.Duration
	// ProcessTimeout is the per-message processing deadline; zero means
	// none. When a Process call exceeds it, the supervisor abandons the
	// execution (the stalled goroutine is left to finish and exit on its
	// own) and applies the policy to the message.
	ProcessTimeout time.Duration
}

func (sv Supervision) withDefaults() Supervision {
	if sv.MaxRetries <= 0 {
		sv.MaxRetries = 3
	}
	if sv.RetryBackoff <= 0 {
		sv.RetryBackoff = time.Millisecond
	}
	if sv.MaxBackoff <= 0 {
		sv.MaxBackoff = 50 * time.Millisecond
	}
	return sv
}

// FaultKind classifies what went wrong inside a Process call.
type FaultKind int

const (
	// FaultPanic is a recovered Processor panic.
	FaultPanic FaultKind = iota
	// FaultError is a Processor error under a non-default policy.
	FaultError
	// FaultStall is a Process call abandoned past the ProcessTimeout.
	FaultStall
)

var faultKindNames = [...]string{"panic", "error", "stall"}

func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultRecord describes one message's fault outcome — reported once per
// faulting message, after the policy (including retries) ran its course, so
// subscribers are not flooded with per-attempt noise. Recovered records
// (a retry eventually succeeded) let observers surface transient faults
// without treating them as failures.
type FaultRecord struct {
	// Streamlet is the faulting instance id.
	Streamlet string
	// Kind is the classification of the final failing attempt.
	Kind FaultKind
	// MsgID identifies the message that faulted.
	MsgID string
	// Err is the final attempt's error (panics are wrapped).
	Err error
	// Attempts is how many Process executions were tried.
	Attempts int
	// Bypassed reports that the message was forwarded unprocessed rather
	// than dropped.
	Bypassed bool
	// Recovered reports that a retry succeeded after the recorded fault:
	// the message was processed normally and nothing was lost.
	Recovered bool
}

// ErrProcessorPanic wraps a recovered Processor panic.
var ErrProcessorPanic = errors.New("streamlet: processor panicked")

// ErrProcessStall reports a Process call abandoned past its deadline.
var ErrProcessStall = errors.New("streamlet: process exceeded deadline")

// supervision bundles the policy with the fault hook so the executor reads
// both with one atomic load.
type supervision struct {
	cfg     Supervision
	onFault func(FaultRecord)
}

// Supervise installs (or replaces) the instance's fault policy. Safe to
// call before or after Start; the next message sees the new policy.
func (s *Streamlet) Supervise(cfg Supervision) {
	old := s.sup.Load()
	sv := &supervision{cfg: cfg.withDefaults()}
	if old != nil {
		sv.onFault = old.onFault
	}
	s.sup.Store(sv)
}

// OnFault installs a hook receiving one FaultRecord per terminally faulted
// message (after retries, if any). The hook runs on the executing goroutine;
// it must not block for long and must not call back into the streamlet's
// lifecycle synchronously.
func (s *Streamlet) OnFault(f func(FaultRecord)) {
	old := s.sup.Load()
	sv := &supervision{onFault: f}
	if old != nil {
		sv.cfg = old.cfg
	} else {
		sv.cfg = Supervision{}.withDefaults()
	}
	s.sup.Store(sv)
}

// FaultStats reports per-instance fault accounting: recovered panics,
// abandoned stalls, retry executions, and messages resolved by drop or
// bypass.
type FaultStats struct {
	Panics   uint64
	Stalls   uint64
	Retries  uint64
	Dropped  uint64
	Bypassed uint64
}

// Faults returns the instance's fault counters.
func (s *Streamlet) Faults() FaultStats {
	return FaultStats{
		Panics:   s.faultPanics.Load(),
		Stalls:   s.faultStalls.Load(),
		Retries:  s.faultRetries.Load(),
		Dropped:  s.faultDropped.Load(),
		Bypassed: s.faultBypassed.Load(),
	}
}

// procRes is the outcome of one protected Process execution.
type procRes struct {
	emissions []Emission
	err       error
	kind      FaultKind // valid when err != nil
	aborted   bool      // streamlet ended while waiting; message abandoned
	bypassed  bool      // message forwarded unprocessed by PolicyBypass
}

// runProtected executes Process behind a recover so a panicking service
// entity is converted into an error instead of unwinding the gateway.
func runProtected(p Processor, in Input) (res procRes) {
	defer func() {
		if r := recover(); r != nil {
			res = procRes{
				err:  fmt.Errorf("%w: %v\n%s", ErrProcessorPanic, r, debug.Stack()),
				kind: FaultPanic,
			}
		}
	}()
	em, err := p.Process(in)
	if err != nil {
		return procRes{err: err, kind: FaultError}
	}
	return procRes{emissions: em}
}

// procExec is a reusable executor goroutine that runs Process calls on
// behalf of a run loop or slot when a deadline is configured. Each owns one
// exclusively through its execSlot: it is created lazily, abandoned
// (channel closed) when a call stalls, and closed when its owner exits. An
// abandoned executor finishes its in-flight call — however long that takes
// — discards the result, and exits; a permanently hung Processor costs one
// goroutine, not the gateway.
type procExec struct {
	in chan procReq
}

// execSlot is one executing goroutine's private executor handle. Parallel
// slots each carry their own, so a stalled Process call occupies only the
// slot that issued it; the other N-1 keep executing.
type execSlot struct {
	exec *procExec
}

// close abandons the slot's executor, if one exists.
func (sl *execSlot) close() {
	if sl.exec != nil {
		close(sl.exec.in)
		sl.exec = nil
	}
}

type procReq struct {
	input Input
	res   chan procRes // buffered (1): a late result never blocks the executor
}

func (e *procExec) loop(p Processor) {
	for req := range e.in {
		req.res <- runProtected(p, req.input)
	}
}

// invokeTimed runs one Process call with a deadline on the slot's executor.
func (s *Streamlet) invokeTimed(in Input, d time.Duration, sl *execSlot) procRes {
	if sl.exec == nil {
		sl.exec = &procExec{in: make(chan procReq)}
		go sl.exec.loop(s.proc)
	}
	req := procReq{input: in, res: make(chan procRes, 1)}
	select {
	case sl.exec.in <- req:
	case <-s.done:
		return procRes{aborted: true}
	}
	timer := queue.AcquireTimer(d)
	defer queue.ReleaseTimer(timer)
	select {
	case r := <-req.res:
		return r
	case <-timer.C:
		// Stalled: abandon this executor (it drains its in-flight call and
		// exits); the owner's next message gets a fresh one.
		sl.close()
		return procRes{
			err:  fmt.Errorf("%w: %v elapsed", ErrProcessStall, d),
			kind: FaultStall,
		}
	case <-s.done:
		// Shutdown while a call is in flight: abandon the executor and the
		// message (End's documented abandonment semantics).
		sl.close()
		return procRes{aborted: true}
	}
}

// attempt runs one protected Process execution, with or without a deadline.
func (s *Streamlet) attempt(in Input, sv Supervision, sl *execSlot) procRes {
	if sv.ProcessTimeout > 0 {
		return s.invokeTimed(in, sv.ProcessTimeout, sl)
	}
	return runProtected(s.proc, in)
}

// countFault records one fault occurrence in the per-instance and
// gateway-wide counters.
func (s *Streamlet) countFault(kind FaultKind) {
	switch kind {
	case FaultPanic:
		s.faultPanics.Add(1)
		mFaultPanics.Inc()
	case FaultStall:
		s.faultStalls.Add(1)
		mFaultStalls.Inc()
	}
}

// supervised runs the policy loop for one message: attempts (with backoff
// between retries), fault accounting, and the terminal outcome. A returned
// error means the message must be dropped by the caller; bypassed outcomes
// come back as a pass-through emission with err == nil. sl is the calling
// goroutine's private executor slot; retries and backoff occupy only that
// goroutine.
func (s *Streamlet) supervised(in Input, sl *execSlot) procRes {
	sv := s.sup.Load()
	if sv == nil {
		// Unsupervised fast path: panic containment only (a Processor
		// panic must never take down the gateway, policy or not).
		res := runProtected(s.proc, in)
		if res.err != nil && res.kind == FaultPanic {
			s.countFault(FaultPanic)
			s.faultDropped.Add(1)
			mFaultDropped.Inc()
			s.dropped.Add(1)
			mDroppedTotal.Inc()
		}
		return res
	}

	cfg := sv.cfg
	attempts := 1
	if cfg.Policy == PolicyRetry {
		attempts += cfg.MaxRetries
	}
	var res procRes
	var lastKind FaultKind
	var lastErr error
	faulted := false
	for i := 0; i < attempts; i++ {
		if i > 0 {
			s.faultRetries.Add(1)
			mFaultRetries.Inc()
			if !s.backoff(cfg, i) {
				return procRes{aborted: true}
			}
		}
		res = s.attempt(in, cfg, sl)
		if res.aborted {
			return res
		}
		if res.err == nil {
			if faulted {
				// Transient fault healed by retry: report it (observers may
				// raise events) without any terminal disposition.
				s.notifyFault(sv, FaultRecord{
					Streamlet: s.id, Kind: lastKind, MsgID: in.Msg.ID,
					Err: lastErr, Attempts: i + 1, Recovered: true,
				})
			}
			return res
		}
		faulted = true
		lastKind, lastErr = res.kind, res.err
		s.countFault(res.kind)
	}

	// Terminal fault: apply the policy's disposition and report once.
	rec := FaultRecord{
		Streamlet: s.id,
		Kind:      res.kind,
		MsgID:     in.Msg.ID,
		Err:       res.err,
		Attempts:  attempts,
	}
	if cfg.Policy == PolicyBypass {
		rec.Bypassed = true
		s.faultBypassed.Add(1)
		mFaultBypassed.Inc()
		s.fail(fmt.Errorf("streamlet %s: bypassing message %s after %s: %w", s.id, in.Msg.ID, res.kind, res.err))
		s.notifyFault(sv, rec)
		return procRes{emissions: []Emission{{Msg: in.Msg}}, bypassed: true}
	}
	if cfg.Policy != PolicyFail || res.kind != FaultError {
		// Every disposition but the legacy fail-on-error counts the loss:
		// panics and stalls always drop the message, and the drop/retry
		// policies drop on exhaustion.
		s.faultDropped.Add(1)
		mFaultDropped.Inc()
		s.dropped.Add(1)
		mDroppedTotal.Inc()
	}
	s.notifyFault(sv, rec)
	return res
}

// backoff sleeps the capped exponential delay before retry attempt i,
// returning false when the streamlet ended during the wait.
func (s *Streamlet) backoff(cfg Supervision, attempt int) bool {
	d := cfg.RetryBackoff << (attempt - 1)
	if d > cfg.MaxBackoff {
		d = cfg.MaxBackoff
	}
	timer := queue.AcquireTimer(d)
	defer queue.ReleaseTimer(timer)
	select {
	case <-timer.C:
		return true
	case <-s.done:
		return false
	}
}

func (s *Streamlet) notifyFault(sv *supervision, rec FaultRecord) {
	if sv.onFault != nil {
		sv.onFault(rec)
	}
}
