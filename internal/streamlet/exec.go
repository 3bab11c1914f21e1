package streamlet

// The executor: the one runtime every streamlet runs on — the stub of
// §6.1 (Figure 6-2) that fetches from an input channel and calls
// processMsg. There is one run loop per bound input port. It fetches up to
// batch items in one FetchNGated (batch = 1 is simply N = 1), runs the
// port's stage list inline on the fetching goroutine, flushes the emit
// sink once (one PostN per run of same-queue emissions), and only then
// settles the Figure 7-4 accounting: inflight -= n and AckN(n). A message
// is therefore always visible to Quiesced/CanTerminate — queued, in a
// loop's hands, or posted downstream — which is what the drains rely on.
//
// The stage list has one entry for an ordinary streamlet. A fused segment
// (fuse.go) is the same loop with more stages: stage k's emissions recurse
// into stage k+1 on the same stack, depth-first, so the exit order equals
// the queued pipeline's, and only the last stage posts. Per-message work
// lives in exactly one produce/finish pair, which every stage runs:
//
//   - produce: the type check, the trace/span capture, the supervised
//     Process call, and the sampled latency histogram;
//   - finish: the fault dispositions, counters, trace/span bookkeeping, the
//     peer push, and emit-or-recurse into the next stage.
//
// Serial execution (workers = 1) runs both halves inline. A streamlet with
// several input ports runs one loop per port; the loops share the
// streamlet's exec lock, so Process never runs concurrently. With
// workers = N the loop instead dispatches each item to N slots that run
// produce concurrently; the resequencer runs finish strictly in fetch
// order, and an admission token per item bounds the in-flight set at N, so
// at most N-1 completions ever wait for an earlier one.

import (
	"fmt"
	"sync"
	"time"

	"mobigate/internal/mime"
	"mobigate/internal/obs"
	"mobigate/internal/queue"
)

var (
	mWorkersBusy = obs.DefaultIntGauge(obs.MStreamletWorkersBusy)
	mReseqDepth  = obs.DefaultIntGauge(obs.MStreamletReseqDepth)
)

// stage is one entry of a run loop's stage list: a member streamlet and the
// input port it is fed on.
type stage struct {
	m    *Streamlet
	port string
}

// workItem is one message reference as a stage receives it.
type workItem struct {
	port  string
	msgID string
	// src is the queue the head item came from; it is acked when handling
	// completes and names the queue-wait span.
	src *queue.Queue
	// wait is how long the message sat in src before the fetch; it becomes
	// the queue-wait field of the message's trace hop. enqueuedNs is the
	// enqueue stamp on the obs clock (0 when unstamped) and anchors the
	// queue-wait span. Both are zero for stages after the first: those
	// never waited.
	wait       time.Duration
	enqueuedNs int64
	seq        uint64 // fetch-order stamp (parallel mode only)
}

// fetched is the workItem of a head item fetched from q on port.
func fetched(it queue.Item, port string, q *queue.Queue) workItem {
	return workItem{port: port, msgID: it.MsgID, src: q, wait: it.Wait, enqueuedNs: it.EnqueuedNs()}
}

// executor is the private state of one run loop, or of the resequencer:
// the stage list, a deadline-executor slot per stage, the deferred emit
// sink, and the pool bookkeeping of the item in flight.
type executor struct {
	stages []stage
	slots  []execSlot
	sink   emitSink
	// headID is the pool entry the item in flight was fetched as, and
	// headLive whether that entry still exists. Later stages run on raw
	// message references (a fused segment pools only at its seams), so
	// this one entry is all the pool bookkeeping an item needs.
	headID   string
	headLive bool
	// superseded lists originals whose by-value copies went downstream;
	// they are recycled once the last stage's emissions are all out.
	superseded []string
}

func newExecutor(stages []stage) *executor {
	return &executor{stages: stages, slots: make([]execSlot, len(stages))}
}

func (x *executor) close() {
	for i := range x.slots {
		x.slots[i].close()
	}
}

// run is the executor loop for one input port. The pause gate retracts an
// in-progress fetch without consuming anything; fetched items run to
// completion even while the loop is being retired (re-queueing would
// reorder); only End abandons them, acked as handled.
func (s *Streamlet) run(q *queue.Queue, stop chan struct{}, stages []stage, batch int) {
	defer s.wg.Done()
	x := newExecutor(stages)
	defer x.close()
	port := stages[0].port
	buf := make([]queue.Item, batch)
	for {
		gate, live := s.fetchableGate(stop)
		if !live {
			return
		}
		n := q.FetchNGated(buf, stop, gate)
		if n == 0 {
			if stopped(stop) || q.Closed() {
				return
			}
			continue // the pause gate fired: park until reactivated
		}
		s.inflight.Add(int64(n))
		if stopped(s.done) {
			s.settle(q, n)
			return
		}
		if s.workers > 1 {
			if !s.dispatch(buf[:n], port, q) {
				return
			}
		} else {
			s.execMu.Lock()
			for _, it := range buf[:n] {
				x.runStage(0, nil, fetched(it, port, q))
			}
			x.flush()
			s.execMu.Unlock()
			s.settle(q, n)
		}
		if stopped(stop) {
			return
		}
	}
}

// settle records n items fetched from q as fully handled (or abandoned).
func (s *Streamlet) settle(q *queue.Queue, n int) {
	s.inflight.Add(int64(-n))
	q.AckN(n)
}

// completion carries one stage's produce results to its finish.
type completion struct {
	k    int
	it   workItem
	res  procRes
	skip bool // the pool fetch failed: nothing to finish
	// rejected: the runtime type check failed; the message is dropped.
	rejected bool

	tracing     bool
	sctx        obs.SpanContext
	inChain     string
	session     string
	bytesIn     int
	procStartNs int64
	procDur     time.Duration
}

func (x *executor) runStage(k int, msg *mime.Message, it workItem) {
	c := x.produce(k, msg, it)
	x.finish(&c)
}

// produce runs everything of stage k that is safe to run concurrently,
// through the supervised Process call, and captures what finish needs. A
// nil msg is the head item, fetched from the pool here.
func (x *executor) produce(k int, msg *mime.Message, it workItem) completion {
	m := x.stages[k].m
	c := completion{k: k, it: it}
	if msg == nil {
		var err error
		if msg, err = m.pool.Get(it.msgID); err != nil {
			m.fail(fmt.Errorf("streamlet %s: %w", m.id, err))
			c.skip = true
			return c
		}
	}
	if err := m.checkInputType(it.port, msg); err != nil {
		m.typeErrs.Add(1)
		mTypeErrorsTotal.Inc()
		m.fail(err)
		c.rejected = true
		return c
	}
	c.tracing = obs.TracingEnabled()
	if obs.SpansEnabled() {
		// Only messages already inside a trace (stamped at the inlet) grow
		// spans; everything else pays a single header lookup.
		c.sctx = obs.ParseSpanContext(msg.Header(mime.HeaderSpanContext))
	}
	spans := c.sctx.Valid()
	if c.tracing || spans {
		// Read everything the trace needs before Process runs: a terminal
		// sink may hand the message to another goroutine, after which it
		// must not be touched.
		c.inChain = msg.Header(obs.TraceHeader)
		c.session = msg.Session()
		c.bytesIn = msg.Len()
	}
	// The trace hop needs the exact per-message duration; the histogram is
	// content with a sample. Without either consumer, skip the clock reads.
	tick := m.procTick.Add(1)
	sampleHist := tick <= procSampleWarmup || tick%procSampleInterval == 0
	var procStart time.Time
	if c.tracing || sampleHist || spans {
		procStart = time.Now()
		if spans {
			c.procStartNs = obs.MonoNow()
		}
	}
	c.res = m.supervised(Input{Port: it.port, Msg: msg}, &x.slots[k])
	if c.tracing || sampleHist || spans {
		c.procDur = time.Since(procStart)
	}
	if sampleHist {
		m.procHist.Observe(c.procDur.Seconds())
	}
	return c
}

// finish is the ordered half of a stage: fault disposition, counters,
// trace/span bookkeeping, and routing — the last stage emits into the
// sink, earlier stages recurse into the next one. Callers run finish in
// fetch order.
func (x *executor) finish(c *completion) {
	if c.skip {
		return
	}
	k, it, res := c.k, c.it, c.res
	m := x.stages[k].m
	if k == 0 {
		x.headID, x.headLive = it.msgID, true
	}
	switch {
	case c.rejected:
		x.retire(it.msgID)
		return
	case res.aborted:
		// The streamlet ended mid-call: the message is abandoned exactly as
		// End documents; its pool entry stays for stream-level cleanup.
		return
	case res.err != nil:
		// Fault accounting (dropped counts, fault counters, OnFault) already
		// happened inside the supervisor; the error surfaces here and the
		// pool entry is released.
		m.fail(fmt.Errorf("streamlet %s: process: %w", m.id, res.err))
		x.retire(it.msgID)
		return
	}
	if !res.bypassed {
		m.processed.Add(1)
		mProcessedTotal.Inc()
	}
	if c.tracing {
		m.trace(it, c.session, res.emissions, c.inChain, c.bytesIn, c.procDur)
	}
	var sp *spanEmit
	if c.sctx.Valid() {
		sp = m.span(it, c.sctx, c.session, res.emissions, c.bytesIn, c.procStartNs, c.procDur)
	}
	peerID := ""
	// A bypassed message was not transformed, so the peer chain must not
	// promise a reversal at the client.
	if p, ok := Base(m.proc).(Peered); ok && !res.bypassed {
		peerID = p.PeerID()
	}
	last := k == len(x.stages)-1
	kept := false
	for _, em := range res.emissions {
		if em.Msg == nil {
			continue
		}
		if em.Msg.ID == it.msgID {
			kept = true
		}
		if !last {
			if peerID != "" {
				em.Msg.PushPeer(peerID)
			}
			next := x.stages[k+1]
			x.runStage(k+1, em.Msg, workItem{port: next.port, msgID: em.Msg.ID, src: it.src})
		} else if m.emitTo(em, peerID, sp, &x.sink) {
			x.superseded = append(x.superseded, em.Msg.ID)
		} else if em.Msg.ID == x.headID {
			// Forwarded in place: the entry travels downstream with the post.
			x.headLive = false
		}
	}
	if !kept {
		// Terminal stage or identity change: the message may have escaped to
		// another goroutine inside Process (a sink pushing onto a link), so
		// only its pool entry is dropped — the body is never recycled here.
		x.retire(it.msgID)
	}
	// A by-value pool forwards deep copies; an original is dead once its
	// copy is on the way (processors must not retain input bodies past
	// Process), so its entry is taken and its body recycled. A repeated id
	// finds nothing the second time.
	for i, id := range x.superseded {
		if id == x.headID {
			x.headLive = false
		}
		if c := m.pool.Take(id); c != nil {
			c.Recycle()
		}
		x.superseded[i] = ""
	}
	x.superseded = x.superseded[:0]
}

// retire releases the head's pool entry when the message id carrying it is
// not re-emitted. Messages minted by an earlier stage were never pooled, so
// retiring them is a no-op.
func (x *executor) retire(id string) {
	if x.headLive && id == x.headID {
		x.stages[0].m.pool.Remove(id)
		x.headLive = false
	}
}

// trace appends this hop to the message's trace chain and files the chain
// in the shared trace store under the message's session. This is purely
// coordination-plane bookkeeping: Processor code never sees or maintains
// trace state, mirroring how the runtime (not the service entity) manages
// the Content-Peers chain.
func (s *Streamlet) trace(it workItem, session string, emissions []Emission, inChain string, bytesIn int, procDur time.Duration) {
	bytesOut := 0
	for _, em := range emissions {
		if em.Msg != nil {
			bytesOut += em.Msg.Len()
		}
	}
	chain := obs.AppendHop(inChain, obs.Hop{
		Streamlet: s.id,
		QueueWait: it.wait,
		Process:   procDur,
		BytesIn:   bytesIn,
		BytesOut:  bytesOut,
	})
	store := obs.Traces()
	emitted := false
	keptInput := false
	for _, em := range emissions {
		if em.Msg == nil {
			continue
		}
		// The chain travels with the message, next to Content-Peers; a
		// processor that minted a fresh message inherits the input's chain.
		em.Msg.SetHeader(obs.TraceHeader, chain)
		if sess := em.Msg.Session(); session == "" {
			session = sess
		}
		store.Record(session, em.Msg.ID, chain)
		emitted = true
		if em.Msg.ID == it.msgID {
			keptInput = true
		}
	}
	switch {
	case !emitted:
		// Terminal hop (a sink such as the communicator): the message may
		// already have escaped to another goroutine inside Process (e.g.
		// pushed onto a link), so it must not be mutated here — only the
		// store carries the complete record, final hop included.
		store.Record(session, it.msgID, chain)
	case !keptInput:
		// The transformation changed the message identity; drop the stale
		// partial chain so per-hop aggregations do not double-count.
		store.Forget(session, it.msgID)
	}
}

// spanEmit carries the span identity emit needs to parent forward spans
// (nil when spans are off or the message is outside a trace).
type spanEmit struct {
	traceID    uint64
	procSpanID uint64
}

// span records this hop's queue-wait and process spans and stamps every
// emission with the downstream span context (parent = this hop's process
// span). At a terminal hop — no emissions, the message left the gateway or
// died here — it instead closes the end-to-end latency against the
// session's configured budget. Like trace, this is coordination-plane
// bookkeeping only; Processor code never sees span state. Stages after the
// first get a zero-length queue span named after the head's source: the
// queue time fusion eliminated is exactly the fusion win.
func (s *Streamlet) span(it workItem, sctx obs.SpanContext, session string, emissions []Emission, bytesIn int, procStartNs int64, procDur time.Duration) *spanEmit {
	col := obs.Spans()
	// The queue span runs from the enqueue stamp to the start of Process.
	qStart := it.enqueuedNs
	if qStart == 0 {
		qStart = procStartNs - int64(it.wait)
	}
	qid := col.NextID()
	col.Record(obs.Span{
		TraceID: sctx.TraceID, SpanID: qid, ParentID: sctx.ParentID,
		Kind: obs.SpanQueue, Site: col.Site(), Name: it.src.Name(),
		StartNs: qStart, DurNs: procStartNs - qStart, Bytes: bytesIn,
	})
	pid := col.NextID()
	col.Record(obs.Span{
		TraceID: sctx.TraceID, SpanID: pid, ParentID: qid,
		Kind: obs.SpanProcess, Site: col.Site(), Name: s.id,
		StartNs: procStartNs, DurNs: int64(procDur), Bytes: bytesIn,
	})
	next := ""
	for _, em := range emissions {
		if em.Msg == nil {
			continue
		}
		if next == "" {
			next = obs.EncodeSpanContext(obs.SpanContext{TraceID: sctx.TraceID, ParentID: pid, StartNs: sctx.StartNs})
		}
		em.Msg.SetHeader(mime.HeaderSpanContext, next)
	}
	if next == "" {
		// Terminal hop: the whole server chain is behind this message, so
		// its end-to-end latency is known — feed the SLO tracker (a no-op
		// unless a budget is configured for the session). The message itself
		// may already have escaped inside Process and is not touched.
		obs.SLO().Observe(session, col.Now()-sctx.StartNs)
		return nil
	}
	return &spanEmit{traceID: sctx.TraceID, procSpanID: pid}
}

// emitTo prepares one emission and defers its queue post into the sink: the
// peer chain and the pool Put+Forward happen here. It reports whether the
// pool handed a deep copy downstream (by-value mode), in which case the
// original's pool entry is superseded.
func (s *Streamlet) emitTo(em Emission, peerID string, sp *spanEmit, sink *emitSink) (copied bool) {
	q := s.resolveOut(em.Port)
	if q == nil {
		// Open circuit at runtime: the §5.2.2 condition the semantic model
		// exists to prevent. Surface it rather than losing silently.
		s.fail(fmt.Errorf("streamlet %s: no queue bound to output port %q; message %s lost",
			s.id, em.Port, em.Msg.ID))
		s.pool.Remove(em.Msg.ID)
		return false
	}
	if peerID != "" {
		em.Msg.PushPeer(peerID)
	}
	// Body length is read before the post: once it lands, the message is
	// owned downstream and must not be touched.
	size := em.Msg.Len()
	s.pool.Put(em.Msg)
	fid, err := s.pool.Forward(em.Msg.ID)
	if err != nil {
		s.fail(err)
		return false
	}
	sink.entries = append(sink.entries, sinkEntry{q: q, fid: fid, origID: em.Msg.ID, size: size, sp: sp})
	return fid != em.Msg.ID
}

// sinkEntry is one deferred queue post: everything emitTo decided except
// the post itself.
type sinkEntry struct {
	q      *queue.Queue
	fid    string // forwarded id to post (fid != origID means a deep copy)
	origID string
	size   int
	sp     *spanEmit // forward-span parent (nil when spans are off)
}

// emitSink buffers the deferred posts of one fetched batch. Both slices
// keep their capacity, so steady state allocates nothing.
type emitSink struct {
	entries []sinkEntry
	scratch []queue.Entry
}

// flush posts the sink's deferred emissions downstream in order, one PostN
// per run of consecutive same-queue entries (a chain hop emits to one
// queue, so the common case is exactly one PostN). The last stage owns the
// posts: its drop counters and its lifetime.
func (x *executor) flush() {
	tail := x.stages[len(x.stages)-1].m
	ents := x.sink.entries
	for i := 0; i < len(ents); {
		j := i + 1
		for j < len(ents) && ents[j].q == ents[i].q {
			j++
		}
		tail.flushRun(ents[i].q, ents[i:j], &x.sink.scratch)
		i = j
	}
	for i := range ents {
		ents[i] = sinkEntry{} // release ids and span refs
	}
	x.sink.entries = ents[:0]
}

func (s *Streamlet) flushRun(q *queue.Queue, run []sinkEntry, scratch *[]queue.Entry) {
	es := (*scratch)[:0]
	spansOn := false
	for i := range run {
		es = append(es, queue.Entry{MsgID: run[i].fid, Size: run[i].size})
		spansOn = spansOn || run[i].sp != nil
	}
	*scratch = es
	var flushStart, flushEnd int64
	if spansOn {
		flushStart = obs.MonoNow()
	}
	_, failed, err := q.PostN(es, s.done)
	if err != nil && err != queue.ErrDropped {
		s.fail(fmt.Errorf("streamlet %s: post to %s: %w", s.id, q.Name(), err))
	}
	if spansOn {
		flushEnd = obs.MonoNow()
	}
	fi := 0
	for idx := range run {
		e := &run[idx]
		if fi < len(failed) && failed[fi] == idx {
			// Not posted: dropped on timeout, or cut off by close/shutdown.
			// A deep copy never left the pool, so its body is reclaimed; an
			// in-place forward's entry is removed. (A distinct original was
			// already superseded in finish.)
			fi++
			s.dropped.Add(1)
			mDroppedTotal.Inc()
			if e.fid != e.origID {
				if c := s.pool.Take(e.fid); c != nil {
					c.Recycle()
				}
			} else {
				s.pool.Remove(e.fid)
			}
			continue
		}
		if e.sp != nil {
			// One forward span per posted emission; all spans of a run share
			// the flush window, the true cost the post amortized.
			col := obs.Spans()
			col.Record(obs.Span{
				TraceID: e.sp.traceID, SpanID: col.NextID(), ParentID: e.sp.procSpanID,
				Kind: obs.SpanForward, Site: col.Site(), Name: q.Name(),
				StartNs: flushStart, DurNs: flushEnd - flushStart, Bytes: e.size,
			})
		}
	}
}

// dispatch hands fetched items to the parallel slots in fetch order. Each
// item takes its admission token before its sequence number, so the loops
// of two input ports can never hold sequence numbers that wait on each
// other's tokens. It returns false when End abandoned the rest.
func (s *Streamlet) dispatch(items []queue.Item, port string, q *queue.Queue) bool {
	for i, it := range items {
		select {
		case s.tokens <- struct{}{}:
		case <-s.done:
			s.settle(q, len(items)-i)
			return false
		}
		w := fetched(it, port, q)
		w.seq = s.seq.Add(1) - 1
		select {
		case s.work <- w:
		case <-s.done:
			s.settle(q, len(items)-i)
			return false
		}
	}
	return true
}

// slot is one of the workers execution slots: it runs produce for the
// dispatched items, each slot with its own deadline executor, so a stalled
// Process call occupies only its slot.
func (s *Streamlet) slot() {
	defer s.wg.Done()
	x := newExecutor([]stage{{m: s}})
	defer x.close()
	for {
		select {
		case <-s.done:
			return
		case it := <-s.work:
			mWorkersBusy.Add(1)
			c := x.produce(0, nil, it)
			mWorkersBusy.Add(-1)
			s.reseq.deposit(c)
		}
	}
}

// reseq restores fetch order in parallel mode. Completions are deposited in
// any order into a ring indexed by sequence number (the admission tokens
// keep every in-flight number within workers of the next one); whoever
// deposits the next expected number sweeps the ready run: finish in order,
// one flush, then the accounting and one readmitted token per item.
type reseq struct {
	s       *Streamlet
	mu      sync.Mutex
	x       *executor // the finishing executor (finish and flush only)
	ring    []completion
	ready   []bool
	next    uint64
	pending int
	swept   []*queue.Queue // sources to ack after the sweep's flush
}

func newReseq(s *Streamlet) *reseq {
	return &reseq{s: s, x: newExecutor([]stage{{m: s}}),
		ring: make([]completion, s.workers), ready: make([]bool, s.workers)}
}

func (r *reseq) deposit(c completion) {
	s := r.s
	r.mu.Lock()
	defer r.mu.Unlock()
	if stopped(s.done) {
		s.settle(c.it.src, 1) // abandoned; End settles whatever is parked
		return
	}
	w := uint64(len(r.ring))
	r.ring[c.it.seq%w], r.ready[c.it.seq%w] = c, true
	r.pending++
	mReseqDepth.Add(1)
	for i := r.next % w; r.ready[i]; i = r.next % w {
		r.x.finish(&r.ring[i])
		r.swept = append(r.swept, r.ring[i].it.src)
		r.ring[i], r.ready[i] = completion{}, false
		r.next++
	}
	if n := len(r.swept); n > 0 {
		r.x.flush()
		for i, q := range r.swept {
			s.settle(q, 1)
			<-s.tokens // readmit one fetch
			r.swept[i] = nil
		}
		r.swept = r.swept[:0]
		r.pending -= n
		mReseqDepth.Add(int64(-n))
	}
	// The high-water mark counts completions genuinely parked behind a
	// missing earlier one; the admission tokens bound it at workers-1.
	if d := int64(r.pending); d > s.reseqPeak.Load() {
		s.reseqPeak.Store(d)
	}
}

// abandon settles the completions still parked when End stopped the slots.
func (r *reseq) abandon() {
	for i := range r.ring {
		if r.ready[i] {
			r.s.settle(r.ring[i].it.src, 1)
			r.ring[i], r.ready[i] = completion{}, false
		}
	}
	mReseqDepth.Add(int64(-r.pending))
	r.pending = 0
}
