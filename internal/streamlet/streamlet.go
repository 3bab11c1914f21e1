// Package streamlet implements the Streamlet base abstraction of thesis
// §6.1: the runtime wrapper that gives a service entity (a Processor) its
// identity, lifecycle (pause/activate/end), input/output message-queue
// bindings, and the glue that moves message references between the central
// pool and the channels. Streamlet pooling for stateless service entities
// (§3.3.4) and the streamlet directory (§3.3.7) live here too.
package streamlet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mobigate/internal/mcl"
	"mobigate/internal/mime"
	"mobigate/internal/msgpool"
	"mobigate/internal/obs"
	"mobigate/internal/queue"
)

// Gateway-wide streamlet metrics; per-instance process latency is a
// labeled histogram created per instance id in New.
var (
	mProcessedTotal  = obs.DefaultCounter(obs.MStreamProcessedTotal)
	mDroppedTotal    = obs.DefaultCounter(obs.MStreamDroppedTotal)
	mTypeErrorsTotal = obs.DefaultCounter(obs.MStreamTypeErrorsTotal)
)

// Input is one message arriving on a named input port.
type Input struct {
	Port string
	Msg  *mime.Message
}

// Emission is one message a processor sends to a named output port. An
// empty Port is resolved to the streamlet's sole output port.
type Emission struct {
	Port string
	Msg  *mime.Message
}

// Processor is the computational content of a streamlet — the processMsg()
// logic the streamlet author supplies (Figure 6-2). Process may return zero
// or more emissions; returning the input message (same pointer) forwards it
// without re-pooling.
type Processor interface {
	Process(in Input) ([]Emission, error)
}

// ProcessorFunc adapts a function to the Processor interface.
type ProcessorFunc func(in Input) ([]Emission, error)

// Process calls f.
func (f ProcessorFunc) Process(in Input) ([]Emission, error) { return f(in) }

// Configurable is the control interface of §8.2.1: processors that
// implement it accept operation parameters from the coordinator — at
// instantiation (the declaration's param-* attributes) or at runtime —
// separately from the data ports messages flow through.
type Configurable interface {
	// SetParam sets one named operation parameter; unknown names or
	// unparsable values are errors.
	SetParam(name, value string) error
}

// Unwrapper is implemented by processor decorators (such as the transcode
// cache's memo wrapper); Unwrap returns the decorated processor.
type Unwrapper interface {
	Unwrap() Processor
}

// Base returns the innermost processor behind any decorator chain. The
// runtime consults Base for capability interfaces tied to the computation
// itself (Peered, Configurable), so decorators stay transparent.
func Base(p Processor) Processor {
	for {
		u, ok := p.(Unwrapper)
		if !ok {
			return p
		}
		inner := u.Unwrap()
		if inner == nil {
			return p
		}
		p = inner
	}
}

// Configure applies a parameter map to a processor through its control
// interface. A non-nil params map on a non-Configurable processor is an
// error (the declaration promises tunability the implementation lacks).
func Configure(proc Processor, params map[string]string) error {
	if len(params) == 0 {
		return nil
	}
	c, ok := proc.(Configurable)
	if !ok {
		c, ok = Base(proc).(Configurable)
	}
	if !ok {
		return fmt.Errorf("streamlet: processor %T has no control interface for params %v", proc, params)
	}
	// Deterministic application order for reproducible failures.
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := c.SetParam(k, params[k]); err != nil {
			return fmt.Errorf("streamlet: param %s=%q: %w", k, params[k], err)
		}
	}
	return nil
}

// Peered is implemented by processors whose transformation must be reversed
// by a peer streamlet at the client (§6.5); the runtime appends the peer ID
// to every emitted message's Content-Peers chain.
type Peered interface {
	PeerID() string
}

// State is the streamlet lifecycle state.
type State int32

const (
	// StateCreated is the initial state before Start.
	StateCreated State = iota
	// StateActive is running and processing messages.
	StateActive
	// StatePaused holds processing; queued messages wait (Figure 7-4 uses
	// this during reconfiguration).
	StatePaused
	// StateEnded is terminal.
	StateEnded
)

var stateNames = [...]string{"created", "active", "paused", "ended"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Streamlet is the runtime instance: the stub on the coordination plane
// (its queue bindings) plus its processor on the execution plane.
type Streamlet struct {
	id   string
	decl *mcl.StreamletDecl
	proc Processor
	pool *msgpool.Pool

	// ErrorHandler, when set before Start, receives processing errors (the
	// message that caused one is dropped). Defaults to discarding.
	ErrorHandler func(error)

	// typeCheck, when non-nil, enforces the §4.1 runtime check: every
	// message entering a declared input port must carry a Content-Type
	// equal to or specializing the port's declared type.
	typeCheck atomic.Pointer[mime.Registry]
	typeErrs  atomic.Uint64

	mu    sync.Mutex
	cond  *sync.Cond
	state State
	ins   map[string]*queue.Queue
	outs  map[string]*queue.Queue
	loops map[string]chan struct{} // per-input run-loop stop channels
	// fetchGate is the pause generation signal: open while active, closed
	// by Pause, replaced by Activate. Run loops arm their blocking fetch
	// with it so a pause retracts in-progress fetches instead of letting
	// them pull messages a reconfiguration drain expects to stay queued.
	fetchGate chan struct{}
	// execMu serializes the run loops of a serial streamlet with several
	// input ports, so Process never runs concurrently.
	execMu sync.Mutex

	done chan struct{}
	wg   sync.WaitGroup

	// sup is the installed fault supervision (nil selects the default:
	// panic containment only). Swapped atomically so Supervise/OnFault are
	// safe against a running loop.
	sup atomic.Pointer[supervision]

	// workers is the execution-plane fan-out width and batch the fetch
	// batch size, both fixed before Start (from the declaration or
	// SetWorkers/SetBatch). See exec.go.
	workers int
	batch   int
	// Parallel mode (workers > 1): seq stamps fetch order, work hands items
	// to the slots, tokens (capacity workers) is the admission gate, and
	// reseq restores fetch order before anything is emitted.
	seq       atomic.Uint64
	work      chan workItem
	tokens    chan struct{}
	reseq     *reseq
	reseqPeak atomic.Int64

	faultPanics   atomic.Uint64
	faultStalls   atomic.Uint64
	faultRetries  atomic.Uint64
	faultDropped  atomic.Uint64
	faultBypassed atomic.Uint64

	// inflight counts messages fetched from an input queue but not yet
	// fully handled (processed and posted downstream, or abandoned).
	inflight  atomic.Int64
	processed atomic.Uint64
	dropped   atomic.Uint64

	// procHist is the per-instance process-latency histogram, shared with
	// every instance of the same id (per-session deployments reuse MCL
	// instance variable names, so the series aggregates across sessions).
	procHist *obs.Histogram
	// procTick drives sampled latency observation: the first samples after
	// start are always recorded (so low-traffic instances still report),
	// then 1 in procSampleInterval. With tracing off this also elides the
	// two time.Now calls around Process.
	procTick atomic.Uint64
}

// Process-latency sampling parameters (see procTick).
const (
	procSampleWarmup   = 16
	procSampleInterval = 16
)

// New creates a streamlet instance. id is the instance variable name from
// the stream configuration, decl its MCL declaration (may be nil for
// ad-hoc instances), proc its computational content, and pool the shared
// message pool.
func New(id string, decl *mcl.StreamletDecl, proc Processor, pool *msgpool.Pool) *Streamlet {
	s := &Streamlet{
		id:        id,
		decl:      decl,
		proc:      proc,
		pool:      pool,
		workers:   1,
		batch:     1,
		ins:       make(map[string]*queue.Queue),
		outs:      make(map[string]*queue.Queue),
		loops:     make(map[string]chan struct{}),
		done:      make(chan struct{}),
		fetchGate: make(chan struct{}),
		procHist:  obs.DefaultHistogram(obs.MStreamletProcessSeconds, obs.Labels{"streamlet": id}),
	}
	if decl != nil && decl.Workers > 1 {
		s.workers = decl.Workers
	}
	if decl != nil && decl.Batch > 1 {
		s.batch = decl.Batch
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// ID returns the instance identifier.
func (s *Streamlet) ID() string { return s.id }

// Decl returns the MCL declaration (may be nil).
func (s *Streamlet) Decl() *mcl.StreamletDecl { return s.decl }

// Processor returns the computational content.
func (s *Streamlet) Processor() Processor { return s.proc }

// State returns the current lifecycle state.
func (s *Streamlet) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Processed returns the number of messages processed.
func (s *Streamlet) Processed() uint64 { return s.processed.Load() }

// ProcessLatency returns the instance's process-latency distribution (the
// Figure 7-2 per-streamlet cost), drawn from the shared metrics registry.
func (s *Streamlet) ProcessLatency() obs.HistogramSnapshot { return s.procHist.Snapshot() }

// EnableTypeCheck turns on runtime message/port type matching against the
// given registry (nil selects the default registry). Messages that fail
// the check are dropped and reported through the ErrorHandler.
func (s *Streamlet) EnableTypeCheck(reg *mime.Registry) {
	if reg == nil {
		reg = mime.DefaultRegistry()
	}
	s.typeCheck.Store(reg)
}

// TypeErrors returns how many messages failed the runtime type check.
func (s *Streamlet) TypeErrors() uint64 { return s.typeErrs.Load() }

// Quiesced reports that no fetched message is awaiting or undergoing
// processing. A paused streamlet quiesces once its in-flight messages (if
// any) finish; new input stays parked in its queues.
func (s *Streamlet) Quiesced() bool {
	if s.inflight.Load() != 0 {
		return false
	}
	s.mu.Lock()
	ins := make([]*queue.Queue, 0, len(s.ins))
	for _, q := range s.ins {
		ins = append(ins, q)
	}
	s.mu.Unlock()
	for _, q := range ins {
		if q.InFlight() != 0 {
			return false
		}
	}
	return true
}

// Dropped returns the number of emissions dropped by full output queues.
func (s *Streamlet) Dropped() uint64 { return s.dropped.Load() }

// SetIn binds an input port to a queue (setIn of Figure 6-2): the queue's
// consumer count is incremented and a run loop begins fetching. Any
// previous binding of the port is detached first.
func (s *Streamlet) SetIn(port string, q *queue.Queue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachInLocked(port)
	s.ins[port] = q
	q.IncConsumer()
	if s.state == StateActive || s.state == StatePaused {
		s.startLoopLocked(port, q, []stage{{m: s, port: port}}, s.batch)
	}
}

// SetOut binds an output port to a queue (setOut): the queue's producer
// count is incremented.
func (s *Streamlet) SetOut(port string, q *queue.Queue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.outs[port]; ok {
		old.DecProducer()
	}
	s.outs[port] = q
	q.IncProducer()
}

// DetachIn unbinds an input port; its run loop stops and the queue's
// consumer count is decremented.
func (s *Streamlet) DetachIn(port string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachInLocked(port)
}

func (s *Streamlet) detachInLocked(port string) {
	s.stopLoopLocked(port)
	if q, ok := s.ins[port]; ok {
		q.DecConsumer()
		delete(s.ins, port)
	}
}

// DetachOut unbinds an output port.
func (s *Streamlet) DetachOut(port string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.outs[port]; ok {
		q.DecProducer()
		delete(s.outs, port)
	}
}

// Ins returns a copy of the current input-port bindings.
func (s *Streamlet) Ins() map[string]*queue.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*queue.Queue, len(s.ins))
	for p, q := range s.ins {
		out[p] = q
	}
	return out
}

// Outs returns a copy of the current output-port bindings.
func (s *Streamlet) Outs() map[string]*queue.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*queue.Queue, len(s.outs))
	for p, q := range s.outs {
		out[p] = q
	}
	return out
}

// In returns the queue bound to an input port (nil if unbound).
func (s *Streamlet) In(port string) *queue.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ins[port]
}

// Out returns the queue bound to an output port (nil if unbound).
func (s *Streamlet) Out(port string) *queue.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outs[port]
}

// Start activates the streamlet: a run loop starts on every bound input
// (and, with workers > 1, the execution slots).
func (s *Streamlet) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateCreated {
		return
	}
	s.state = StateActive
	if s.workers > 1 {
		s.work = make(chan workItem)
		s.tokens = make(chan struct{}, s.workers)
		s.reseq = newReseq(s)
		s.wg.Add(s.workers)
		for i := 0; i < s.workers; i++ {
			go s.slot()
		}
	}
	for port, q := range s.ins {
		s.startLoopLocked(port, q, []stage{{m: s, port: port}}, s.batch)
	}
}

// startLoopLocked (re)starts the run loop of one input port on a stage
// list; a loop already running on the port is retired first.
func (s *Streamlet) startLoopLocked(port string, q *queue.Queue, stages []stage, batch int) {
	s.stopLoopLocked(port)
	stop := make(chan struct{})
	s.loops[port] = stop
	s.wg.Add(1)
	go s.run(q, stop, stages, batch)
}

func (s *Streamlet) stopLoopLocked(port string) {
	if stop, ok := s.loops[port]; ok {
		close(stop)
		delete(s.loops, port)
		// A loop parked in fetchableGate (paused) only re-checks its stop
		// channel on a cond wake.
		s.cond.Broadcast()
	}
}

// SetBatch fixes the fetch batch size before Start. n < 1 is treated as 1.
// Declarations with a batch attribute do not need this call; New already
// applies them.
func (s *Streamlet) SetBatch(n int) error { return s.setBeforeStart("batch", &s.batch, n) }

// Batch returns the configured fetch batch size (1 = single-item).
func (s *Streamlet) Batch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batch
}

// SetWorkers fixes the execution-plane fan-out width before Start. n < 1
// is treated as 1 (serial). Declarations with a workers attribute do not
// need this call; New already applies them.
func (s *Streamlet) SetWorkers(n int) error { return s.setBeforeStart("workers", &s.workers, n) }

// Workers returns the configured fan-out width (1 = serial).
func (s *Streamlet) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

func (s *Streamlet) setBeforeStart(name string, field *int, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateCreated {
		return fmt.Errorf("streamlet %s: %s must be set before Start (state %s)", s.id, name, s.state)
	}
	*field = max(n, 1)
	return nil
}

// ResequencerPeak returns the high-water mark of completions that waited
// for an earlier sequence number — the observable cost of head-of-line
// blocking (bounded by workers-1).
func (s *Streamlet) ResequencerPeak() int64 { return s.reseqPeak.Load() }

// Pause suspends input intake (the pause lifecycle method). Closing the
// fetch gate retracts every run loop's blocking fetch, so new messages keep
// accumulating on the input queues; messages already fetched still run to
// completion, which is what lets a paused streamlet quiesce.
func (s *Streamlet) Pause() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateActive {
		s.state = StatePaused
		close(s.fetchGate)
		s.cond.Broadcast()
		obs.FlightRecord(obs.FlightSuspend, s.id, "", 0)
	}
}

// Activate resumes processing after a Pause.
func (s *Streamlet) Activate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StatePaused {
		s.state = StateActive
		s.fetchGate = make(chan struct{})
		s.cond.Broadcast()
		obs.FlightRecord(obs.FlightActivate, s.id, "", 0)
	}
}

// fetchableGate parks the calling run loop while the streamlet is paused
// and returns the gate channel to arm the next fetch with. live=false
// means the loop should exit (its stop fired or the streamlet ended).
func (s *Streamlet) fetchableGate(stop <-chan struct{}) (gate <-chan struct{}, live bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.state == StatePaused {
		if stopped(stop) {
			return nil, false
		}
		s.cond.Wait()
	}
	if stopped(stop) || s.state != StateActive {
		return nil, false
	}
	return s.fetchGate, true
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// CanTerminate evaluates the Figure 6-8 prerequisites for safe removal:
// every message posted to a bound input queue has been fully handled
// (posted == acked covers queued and in-processing states with no gaps),
// and nothing fetched from a since-detached queue is pending.
func (s *Streamlet) CanTerminate() bool {
	s.mu.Lock()
	ins := make([]*queue.Queue, 0, len(s.ins))
	for _, q := range s.ins {
		ins = append(ins, q)
	}
	s.mu.Unlock()
	if s.inflight.Load() != 0 {
		return false
	}
	for _, q := range ins {
		if q.Outstanding() != 0 {
			return false
		}
	}
	return true
}

// End terminates the streamlet (the end lifecycle method). All run loops
// and slots stop; bound queues are detached. Messages already fetched are
// abandoned (acked as handled) — callers that must avoid message loss check
// CanTerminate (or use stream-level draining) before calling End.
func (s *Streamlet) End() {
	s.mu.Lock()
	if s.state == StateEnded {
		s.mu.Unlock()
		return
	}
	prev := s.state
	s.state = StateEnded
	for port := range s.loops {
		s.stopLoopLocked(port)
	}
	for port, q := range s.ins {
		q.DecConsumer()
		delete(s.ins, port)
	}
	for port, q := range s.outs {
		q.DecProducer()
		delete(s.outs, port)
	}
	close(s.done)
	s.cond.Broadcast()
	s.mu.Unlock()
	if prev != StateCreated {
		s.wg.Wait()
		if s.reseq != nil {
			s.reseq.abandon()
		}
	}
}

// resolveOut maps an emission port to a queue; "" resolves to the sole
// bound output.
func (s *Streamlet) resolveOut(port string) *queue.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	if port != "" {
		return s.outs[port]
	}
	if len(s.outs) == 1 {
		for _, q := range s.outs {
			return q
		}
	}
	return nil
}

// checkInputType enforces the runtime port-type check of §4.1 when enabled
// and a declaration is available for the port.
func (s *Streamlet) checkInputType(port string, msg *mime.Message) error {
	reg := s.typeCheck.Load()
	if reg == nil || s.decl == nil {
		return nil
	}
	p, ok := s.decl.Port(port)
	if !ok {
		return nil
	}
	ct := msg.ContentType()
	if !reg.SubtypeOf(ct, p.Type) {
		return fmt.Errorf("streamlet %s: message %s type %s violates port %s : %s; message dropped",
			s.id, msg.ID, ct, port, p.Type)
	}
	return nil
}

func (s *Streamlet) fail(err error) {
	if s.ErrorHandler != nil {
		s.ErrorHandler(err)
	}
}
