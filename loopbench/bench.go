package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobigate"
	"mobigate/internal/mime"
	"mobigate/internal/obs"
	"mobigate/internal/server"
)

// warmup runs before every measured window; its deliveries are verified
// but not measured.
const warmup = 2 * time.Second

// drainTimeout bounds how long sessions may take to finish after
// generation stops; a gateway that never ends a session fails the run.
const drainTimeout = 60 * time.Second

// bench is one workload driven through a live gateway over loopback TCP.
type bench struct {
	w     *workload
	seed  int64
	cp    corpus
	clk   clock
	conns int

	gw   *mobigate.Gateway
	fe   *mobigate.GatewayFrontend
	addr string

	mu       sync.Mutex
	sessions map[int]*sess
	nextID   int

	open, maxOpen atomic.Int32
	lost          atomic.Int64 // gateway reports of a lost message
	gwErrs        atomic.Int64
}

func newBench(w *workload, seed int64) *bench {
	conns := w.conns
	if n := runtime.NumCPU(); conns > n {
		conns = n
	}
	return &bench{
		w: w, seed: seed, cp: w.corpus(seed), conns: conns,
		clk:      clock{epoch: time.Now()},
		sessions: make(map[int]*sess),
	}
}

// gatewayError receives the gateway's asynchronous error reports. Reports
// of a lost message are counted into server.lost; the first few of any
// kind are echoed to stderr.
func (b *bench) gatewayError(err error) {
	if strings.Contains(err.Error(), "lost") {
		b.lost.Add(1)
	}
	if b.gwErrs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "gateway: %v\n", err)
	}
}

// source is the front-end's origin: the request names the benchmark
// session, whose generator feeds the returned channel.
func (b *bench) source(req *mime.Message) <-chan *mime.Message {
	id, _ := strconv.Atoi(req.Header(hdrSession))
	b.mu.Lock()
	s := b.sessions[id]
	b.mu.Unlock()
	if s == nil {
		ch := make(chan *mime.Message)
		close(ch)
		return ch
	}
	return s.feed
}

func (b *bench) newSess(due int64, window int, traced bool) *sess {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	s := newSess(b.nextID, due, window, traced)
	b.sessions[s.id] = s
	return s
}

func (b *bench) forget(ss []*sess) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range ss {
		delete(b.sessions, s.id)
	}
}

// setup starts a gateway and its front-end: NewGateway, LoadScript and
// Listen, and in shared mode one priming session, which opens the shared
// session gateway. It returns the time all of that took.
func (b *bench) setup() (time.Duration, error) {
	t0 := time.Now()
	gw := mobigate.NewGateway(mobigate.GatewayOptions{ErrorHandler: b.gatewayError})
	if err := gw.LoadScript(b.w.script); err != nil {
		gw.Close()
		return 0, err
	}
	fe := mobigate.NewFrontend(gw, b.source)
	if b.w.shared {
		fe.EnableSharedSessions(server.SessionGatewayConfig{})
	}
	addr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		gw.Close()
		return 0, err
	}
	b.gw, b.fe, b.addr = gw, fe, addr.String()
	if b.w.shared {
		s := b.newSess(b.clk.now(), 0, false)
		go s.burst(b.clk, &b.cp, 1)
		b.runClient(s, window{}, &tally{})
		b.forget([]*sess{s})
		if len(s.corrupt) > 0 || s.refused != nil || s.delivered != 1 {
			b.teardown()
			return 0, fmt.Errorf("priming session failed: delivered %d, refused %v, corrupt %v", s.delivered, s.refused, s.corrupt)
		}
	}
	return time.Since(t0), nil
}

func (b *bench) teardown() {
	if b.fe != nil {
		_ = b.fe.Close()
	}
	if b.gw != nil {
		b.gw.Close()
	}
	b.gw, b.fe = nil, nil
}

// countingReader counts the bytes a client reads off its connection.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// runClient is one client session: dial the front-end, request the
// workload stream, and reverse-process everything that arrives with the
// client library, checking each message in the handler. One distributor
// keeps the handler in wire (X-Seq) order.
func (b *bench) runClient(s *sess, w window, t *tally) {
	defer func() {
		s.mu.Lock()
		s.endNs = b.clk.now()
		s.mu.Unlock()
		close(s.done)
	}()
	if n := b.open.Add(1); n > b.maxOpen.Load() {
		b.maxOpen.Store(n)
	}
	defer b.open.Add(-1)
	conn, err := net.Dial("tcp", b.addr)
	if err != nil {
		s.refused = err
		return
	}
	defer conn.Close()
	req := mime.NewMessage(mime.Wildcard, nil)
	req.SetHeader(server.HeaderRequestStream, b.w.stream)
	req.SetHeader(hdrSession, strconv.Itoa(s.id))
	if _, err := req.WriteTo(conn); err != nil {
		s.refused = err
		return
	}
	_ = conn.(*net.TCPConn).CloseWrite()
	fail := func(err error) {
		s.mu.Lock()
		s.corrupt = append(s.corrupt, fmt.Errorf("session %d: %w", s.id, err))
		s.mu.Unlock()
	}
	cl := mobigate.NewClient(mobigate.ClientOptions{Ordered: true, Distributors: 1, ErrorHandler: fail},
		func(m *mobigate.Message) { s.deliver(b.clk, w, &b.cp, t, m) })
	if err := cl.ServeConn(countingReader{conn, &t.wire}); err != nil {
		fail(err)
	}
}

// slices is how many equal slices a measured window is cut into;
// per-message figures are the median over slices, so a stall or a burst
// of outside load in one slice does not decide a run.
const slices = 10

// slice is one slice of a measured window.
type slice struct {
	msgs      int64 // intact deliveries received in the slice
	cpu       time.Duration
	allocObjs float64
	allocB    float64
	wire      int64
	lat       []float64 // ms, messages due in the slice
}

// passResult is what one pass of the workload measured.
type passResult struct {
	sliceSec float64
	slices   []slice

	lat, ttfm           []float64 // ms; lat pools every slice
	lag, feed, transit  []float64 // traced only: ms, µs, µs
	sessions, completed int
	sessWall            float64 // s, pass start → last session end
	offered, intact     int
	corrupt             []error
	gaps                []string // sessions that did not receive everything offered
	refused             int
	held, lifted        int                // messages held under the queued-bytes bound; sessions that lifted it
	obs                 map[string]float64 // counter deltas
	lost                int64
}

// pass drives the workload for d after a warm-up and waits for every
// session to finish.
func (b *bench) pass(d time.Duration, traced bool) (*passResult, error) {
	start := b.clk.now() + int64(10*time.Millisecond)
	w := window{from: start + int64(warmup), to: start + int64(warmup+d)}
	t := &tally{}
	obs0 := obs.Default().SnapshotValues()
	lost0 := b.lost.Load()

	var (
		mu  sync.Mutex
		all []*sess
		wg  sync.WaitGroup
	)
	// Each session runs two goroutines: its generator and its client.
	launch := func(s *sess, gen func(*sess)) {
		mu.Lock()
		all = append(all, s)
		mu.Unlock()
		wg.Add(2)
		go func() {
			defer wg.Done()
			gen(s)
		}()
		go func() {
			defer wg.Done()
			b.runClient(s, w, t)
		}()
	}
	dispatched := make(chan struct{})
	switch b.w.traffic {
	case closedLoop:
		for i := 0; i < b.conns; i++ {
			launch(b.newSess(start, b.w.window, traced), func(s *sess) {
				s.closedLoop(b.clk, &b.cp, start, w.to, b.w.window)
			})
		}
		close(dispatched)
	case openLoop:
		period := int64(float64(time.Second) / b.w.rate)
		for i := 0; i < b.conns; i++ {
			s := b.newSess(start, 0, traced)
			s.capBytes = b.w.capBytes
			rng := rand.New(rand.NewSource(b.seed*1000003 + int64(s.id)))
			launch(s, func(s *sess) {
				s.openLoop(b.clk, &b.cp, start, w.to, period, rng)
			})
		}
		close(dispatched)
	case sessionChurn:
		// Sessions are due on a fixed schedule; one that finds every
		// connection slot taken waits, and the wait counts in its ttfm.
		period := int64(float64(time.Second) / b.w.rate)
		slots := make(chan struct{}, b.conns)
		go func() {
			defer close(dispatched)
			for k := 0; ; k++ {
				due := start + int64(k)*period
				if due >= w.to {
					return
				}
				b.clk.sleepUntil(due)
				slots <- struct{}{}
				launch(b.newSess(due, 0, traced), func(s *sess) {
					s.burst(b.clk, &b.cp, b.w.perSession)
					<-s.done
					<-slots
				})
			}
		}()
	}

	n, sl := slices, int64(d)/slices
	cut := make([]slice, n)
	b.clk.sleepUntil(w.from)
	u0, wire0, msgs0 := readUsage(), t.wire.Load(), t.inWindow.Load()
	for k := range cut {
		b.clk.sleepUntil(w.from + int64(k+1)*sl)
		u1, wire1, msgs1 := readUsage(), t.wire.Load(), t.inWindow.Load()
		cut[k] = slice{
			msgs:      msgs1 - msgs0,
			cpu:       u1.cpu - u0.cpu,
			allocObjs: float64(u1.allocObjs - u0.allocObjs),
			allocB:    float64(u1.allocBytes - u0.allocBytes),
			wire:      wire1 - wire0,
		}
		u0, wire0, msgs0 = u1, wire1, msgs1
	}
	<-dispatched
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("%s: sessions still open %v after generation stopped", b.w.name, drainTimeout)
	}
	b.forget(all)

	r := &passResult{
		sliceSec: float64(sl) / 1e9,
		slices:   cut,
		sessions: len(all),
		lost:     b.lost.Load() - lost0,
		obs:      map[string]float64{},
	}
	obs1 := obs.Default().SnapshotValues()
	for k, v := range obs1 {
		if dv := v - obs0[k]; dv != 0 {
			r.obs[k] = dv
		}
	}
	var lastEnd int64
	for _, s := range all {
		for _, l := range s.lat {
			k := min(int((l.due-w.from)/sl), n-1)
			cut[k].lat = append(cut[k].lat, l.ms)
			r.lat = append(r.lat, l.ms)
		}
		r.offered += s.offered
		r.intact += s.delivered
		if s.delivered < s.offered {
			r.gaps = append(r.gaps, s.gap(w))
		}
		r.held += s.held
		if s.capOff {
			r.lifted++
		}
		r.corrupt = append(r.corrupt, s.corrupt...)
		if s.refused != nil {
			r.refused++
		} else {
			r.completed++
		}
		if s.endNs > lastEnd {
			lastEnd = s.endNs
		}
		// Long sessions all start before the window; churn sessions
		// count when they were due inside it.
		if s.firstNs > 0 && (b.w.traffic != sessionChurn || w.has(s.dueNs)) {
			r.ttfm = append(r.ttfm, float64(s.firstNs-s.dueNs)/1e6)
		}
		if traced {
			r.transit = append(r.transit, s.transit...)
			for i, due := range s.due {
				if w.has(due) && s.emit[i] > 0 {
					r.lag = append(r.lag, float64(s.emit[i]-due)/1e6)
					if s.hand[i] > 0 {
						r.feed = append(r.feed, float64(s.hand[i]-s.emit[i])/1e3)
					}
				}
			}
		}
	}
	r.sessWall = float64(lastEnd-start) / 1e9
	return r, nil
}

// obsSum totals the counter deltas of every series in the named families.
func (r *passResult) obsSum(families ...string) float64 {
	total := 0.0
	for k, v := range r.obs {
		name, _, _ := strings.Cut(k, "{")
		for _, f := range families {
			if name == f {
				total += v
			}
		}
	}
	return total
}

// perSlice is the median over slices of f.
func (r *passResult) perSlice(f func(s *slice) float64) float64 {
	xs := make([]float64, len(r.slices))
	for i := range r.slices {
		xs[i] = f(&r.slices[i])
	}
	return median(xs)
}

// perMsg is the median over slices of a slice total divided by the
// slice's intact deliveries.
func (r *passResult) perMsg(f func(s *slice) float64) float64 {
	return r.perSlice(func(s *slice) float64 {
		if s.msgs == 0 {
			return math.NaN()
		}
		return f(s) / float64(s.msgs)
	})
}

func (r *passResult) cpuPerMsg() float64 {
	return r.perMsg(func(s *slice) float64 { return float64(s.cpu) / 1e3 })
}

// latencyPct is the median over slices of each slice's q-quantile, with
// the smallest slice's quantile rank and sample count.
func (r *passResult) latencyPct(q float64) pct {
	out := pct{Q: 1, N: math.MaxInt}
	vals := make([]float64, len(r.slices))
	for i := range r.slices {
		p := quantile(r.slices[i].lat, q)
		vals[i] = p.Value
		out.Q, out.N = math.Min(out.Q, p.Q), min(out.N, p.N)
	}
	out.Value = median(vals)
	return out
}

func (r *passResult) failedRatio() float64 {
	if r.offered == 0 {
		return 0
	}
	return float64(r.offered-r.intact) / float64(r.offered)
}
