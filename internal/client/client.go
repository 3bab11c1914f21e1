// Package client implements the MobiGATE client of thesis §3.4: the thin
// peer of the gateway that reverse-processes incoming messages. There is no
// channel or coordination machinery here — the composition information
// arrives in the message header (the Content-Peers chain of §6.5). The
// multi-threaded Message Distributor parses incoming MIME messages and
// hands each to the matching peer streamlets; the Client Streamlet Pool
// creates and recycles the peer-processor instances.
package client

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"mobigate/internal/mime"
	"mobigate/internal/obs"
	"mobigate/internal/streamlet"
)

// Handler receives fully reverse-processed messages, ready for the
// higher-layer application.
type Handler func(*mime.Message)

// Options configure a Client.
type Options struct {
	// Peers advertises the reverse streamlets, keyed by peer ID. nil
	// creates an empty directory (messages without peers pass through).
	Peers *streamlet.Directory
	// Distributors bounds the concurrent Message Distributor threads
	// (default 4). A new thread services each message when one is free,
	// mirroring the servlet-style threading of §3.4.1.
	Distributors int
	// PoolSize bounds each peer-streamlet pool (default 8).
	PoolSize int
	// ErrorHandler receives per-message processing errors; the failing
	// message is dropped. Defaults to discarding.
	ErrorHandler func(error)
	// Ordered restores gateway delivery order before invoking the handler:
	// the multi-threaded distributor may finish messages out of order, and
	// the X-Seq stamp the front-end adds lets the client re-sequence them.
	// Messages without a sequence stamp are delivered immediately.
	Ordered bool
	// Spans, when set, records one peer span per reversal into this
	// collector — the client's own clock domain. The application drains it
	// (Drain + EncodeSpanBatch) to ship span batches back to the gateway
	// over the control channel. nil disables client-side span recording.
	Spans *obs.SpanCollector
}

// Client is a MobiGATE client.
type Client struct {
	opts    Options
	peers   *streamlet.Directory
	handler Handler

	mu    sync.Mutex
	pools map[string]*streamlet.ProcessorPool

	sem chan struct{}

	seq sequencer

	processed atomic.Uint64
	failed    atomic.Uint64
}

// sequencer is the reorder buffer used when Options.Ordered is set.
type sequencer struct {
	mu      sync.Mutex
	next    uint64
	pending map[uint64]*mime.Message
	// draining marks that one goroutine is handing the ready run to the
	// handler; others only park their message, so the handler sees
	// sequence order even though it runs outside mu.
	draining bool
	ready    []*mime.Message // the drainer's current run
}

// submit delivers m (stamped with seq) and everything consecutive after it.
// A nil message marks the sequence slot as skipped (a processing failure)
// so later messages are not stalled behind the hole. One goroutine at a
// time drains: it loops until nothing is ready, calling deliver without
// the lock held.
func (s *sequencer) submit(seq uint64, m *mime.Message, deliver func(*mime.Message)) {
	s.mu.Lock()
	if s.pending == nil {
		s.pending = make(map[uint64]*mime.Message)
	}
	s.pending[seq] = m
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	for {
		// Only the drainer touches s.ready, so it reads the run unlocked.
		s.ready = s.ready[:0]
		for {
			n, ok := s.pending[s.next]
			if !ok {
				break
			}
			delete(s.pending, s.next)
			s.next++
			if n != nil {
				s.ready = append(s.ready, n)
			}
		}
		if len(s.ready) == 0 {
			s.draining = false
			s.mu.Unlock()
			return
		}
		ready := s.ready
		s.mu.Unlock()
		for i, n := range ready {
			deliver(n)
			ready[i] = nil
		}
		s.mu.Lock()
	}
}

// New creates a client delivering finished messages to handler.
func New(opts Options, handler Handler) *Client {
	if opts.Peers == nil {
		opts.Peers = streamlet.NewDirectory()
	}
	if opts.Distributors <= 0 {
		opts.Distributors = 4
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 8
	}
	if handler == nil {
		handler = func(*mime.Message) {}
	}
	return &Client{
		opts:    opts,
		peers:   opts.Peers,
		handler: handler,
		pools:   make(map[string]*streamlet.ProcessorPool),
		sem:     make(chan struct{}, opts.Distributors),
	}
}

// Peers returns the client's peer-streamlet directory.
func (c *Client) Peers() *streamlet.Directory { return c.peers }

// Stats returns processed and failed message counts.
func (c *Client) Stats() (processed, failed uint64) {
	return c.processed.Load(), c.failed.Load()
}

// Process reverse-processes one message synchronously: the Content-Peers
// chain is popped LIFO and each named peer streamlet applied in turn
// (§6.5). The returned message is the application-ready result. With a
// span collector configured, each reversal is recorded as a peer span
// chained under the span context the message arrived with (the link span,
// after the gateway side re-parented it).
func (c *Client) Process(m *mime.Message) (*mime.Message, error) {
	col := c.opts.Spans
	var sctx obs.SpanContext
	if col != nil {
		sctx = obs.ParseSpanContext(m.Header(mime.HeaderSpanContext))
		if !sctx.Valid() {
			col = nil
		}
	}
	parent := sctx.ParentID
	cur := m
	for {
		peerID, ok := cur.PopPeer()
		if !ok {
			break
		}
		proc, pool, err := c.acquire(peerID)
		if err != nil {
			c.failed.Add(1)
			return nil, fmt.Errorf("client: message %s: %w", m.ID, err)
		}
		var start int64
		if col != nil {
			start = col.Now()
		}
		emissions, err := proc.Process(streamlet.Input{Port: "pi", Msg: cur})
		pool.Put(proc)
		if err != nil {
			c.failed.Add(1)
			return nil, fmt.Errorf("client: peer %s: %w", peerID, err)
		}
		if len(emissions) != 1 || emissions[0].Msg == nil {
			c.failed.Add(1)
			return nil, fmt.Errorf("client: peer %s emitted %d messages, want 1", peerID, len(emissions))
		}
		cur = emissions[0].Msg
		if col != nil {
			id := col.NextID()
			col.Record(obs.Span{
				TraceID: sctx.TraceID, SpanID: id, ParentID: parent,
				Kind: obs.SpanPeer, Name: peerID,
				StartNs: start, DurNs: col.Now() - start, Bytes: cur.Len(),
			})
			parent = id
		}
	}
	c.processed.Add(1)
	return cur, nil
}

// acquire fetches a pooled peer-processor instance (the Client Streamlet
// Pool of §3.4.2).
func (c *Client) acquire(peerID string) (streamlet.Processor, *streamlet.ProcessorPool, error) {
	factory, err := c.peers.Lookup(peerID)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	pool, ok := c.pools[peerID]
	if !ok {
		pool = streamlet.NewProcessorPool(factory, c.opts.PoolSize)
		c.pools[peerID] = pool
	}
	c.mu.Unlock()
	return pool.Get(), pool, nil
}

// Dispatch hands a message to a distributor thread; it blocks only when all
// distributor slots are busy (whereupon the caller effectively waits for a
// free thread, as in §3.4.1). Results go to the client handler.
func (c *Client) Dispatch(m *mime.Message, wg *sync.WaitGroup) {
	c.sem <- struct{}{}
	if wg != nil {
		wg.Add(1)
	}
	go func() {
		defer func() {
			<-c.sem
			if wg != nil {
				wg.Done()
			}
		}()
		seqText := m.Header(headerSeq)
		out, err := c.Process(m)
		if err != nil {
			c.fail(err)
			// Mark the slot skipped so ordered delivery is not stalled
			// behind the failed message.
			if c.opts.Ordered && seqText != "" {
				if n, perr := strconv.ParseUint(seqText, 10, 64); perr == nil {
					c.seq.submit(n, nil, c.handler)
				}
			}
			return
		}
		c.deliver(out)
	}()
}

// ServeConn reads wire-format messages from conn until EOF, dispatching
// each to the distributor threads, and waits for all of them to finish.
func (c *Client) ServeConn(conn io.Reader) error {
	br := bufio.NewReader(conn)
	var wg sync.WaitGroup
	for {
		m, err := mime.ReadMessage(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			wg.Wait()
			return fmt.Errorf("client: reading stream: %w", err)
		}
		c.Dispatch(m, &wg)
	}
	wg.Wait()
	return nil
}

// deliver hands a finished message to the handler, restoring sequence
// order when configured.
func (c *Client) deliver(m *mime.Message) {
	seqText := m.Header(headerSeq)
	if !c.opts.Ordered || seqText == "" {
		m.DelHeader(headerSeq)
		c.handler(m)
		return
	}
	n, err := strconv.ParseUint(seqText, 10, 64)
	if err != nil {
		c.fail(fmt.Errorf("client: message %s has malformed sequence %q", m.ID, seqText))
		m.DelHeader(headerSeq)
		c.handler(m)
		return
	}
	m.DelHeader(headerSeq)
	c.seq.submit(n, m, c.handler)
}

// headerSeq mirrors the front-end's sequence header name (kept local to
// avoid a server dependency).
const headerSeq = "X-Seq"

func (c *Client) fail(err error) {
	if c.opts.ErrorHandler != nil {
		c.opts.ErrorHandler(err)
	}
}
