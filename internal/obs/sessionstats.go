package obs

// Session-scale observability: per-session SLO sampling and a heavy-hitter
// tracker, both sized for a gateway multiplexing 100k+ logical sessions
// onto a handful of shared planes.
//
// Tracking a latency window per session would cost ~2 KB × population —
// megabytes of permanently hot memory for accounting the paper says the
// coordinator should own (§7.3). Instead the sampler selects a
// deterministic ~1/rate subset by session-id hash (the same FNV-1a the
// session table shards by, so selection is free on the connect path and
// stable across reconnects of the same id) and attaches a fixed-pool slot
// only to selected sessions. The slot observe path is atomics-only — a
// sampled session's post/release hot path stays at 0 allocs/op, gated by
// BenchmarkSessionSLOSample.
//
// The heavy-hitter tracker answers the complementary question — which
// sessions are the worst, not which are representative — with a bounded
// space-saving sketch over *every* session's releases and sheds: when a
// shard is full, the entry with the smallest message count is displaced
// and the newcomer inherits that count (the classic space-saving error
// bound on the frequency dimension; byte/shed/violation tallies restart).
// Both surfaces are served as one JSON snapshot on /sessions.

import (
	"sort"
	"sync"
	"sync/atomic"
)

// sessionSlotWindow bounds one sampled session's latency ring (ns samples).
const sessionSlotWindow = 256

// defaultSampleRate selects ~1 in 64 sessions (must be a power of two).
const defaultSampleRate = 64

// defaultSlotPool bounds the sampler's slot pool; selections past the pool
// are counted as overflow and tracked plane-level only.
const defaultSlotPool = 1024

// hhShards is the heavy-hitter lock fan-out.
const hhShards = 16

// defaultHHPerShard bounds each heavy-hitter shard's entry count, so the
// sketch retains at most hhShards*defaultHHPerShard sessions.
const defaultHHPerShard = 64

// SessionSlot is one sampled session's latency window. The owning session
// stores the pointer at connect and observes into it on every delivered
// release: atomics only, no allocation, no lock.
type SessionSlot struct {
	ring [sessionSlotWindow]atomic.Int64
	// writes counts lifetime observations; the write index is writes mod
	// the window. Concurrent releases claim distinct indices with one Add.
	writes      atomic.Uint64
	last        atomic.Int64
	violations  atomic.Uint64
	inViolation atomic.Bool

	id string // owning session id; written under the sampler lock
}

// Observe records one delivered-message latency and applies the budget
// (<=0: no budget). It reports true on an edge-triggered violation — the
// first over-budget observation after a compliant one — so the caller can
// count it without the slot importing the caller's metrics.
func (sl *SessionSlot) Observe(latencyNs, budgetNs int64) bool {
	idx := (sl.writes.Add(1) - 1) % sessionSlotWindow
	sl.ring[idx].Store(latencyNs)
	sl.last.Store(MonoNow())
	if budgetNs <= 0 {
		return false
	}
	if latencyNs > budgetNs {
		if sl.inViolation.CompareAndSwap(false, true) {
			sl.violations.Add(1)
			return true
		}
		return false
	}
	sl.inViolation.Store(false)
	return false
}

// SessionSLOSample is the snapshot of one sampled session.
type SessionSLOSample struct {
	ID          string `json:"id"`
	Count       uint64 `json:"count"`
	P50Ns       int64  `json:"p50Ns"`
	P95Ns       int64  `json:"p95Ns"`
	P99Ns       int64  `json:"p99Ns"`
	Violations  uint64 `json:"violations"`
	InViolation bool   `json:"inViolation"`
	Stale       bool   `json:"stale,omitempty"`
}

// snapshotAt renders the slot's counters and quantiles; quantiles follow
// the registry age-out rule. The ring is read racily against concurrent
// observes — each cell is a single atomic load, and a torn window only
// blurs quantiles by one sample. The owner id is left to the caller, which
// reads it under the sampler lock (AcquireSlot rewrites it there when the
// slot is recycled).
func (sl *SessionSlot) snapshotAt(now int64, scratch []int64) SessionSLOSample {
	s := SessionSLOSample{
		Count:       sl.writes.Load(),
		Violations:  sl.violations.Load(),
		InViolation: sl.inViolation.Load(),
	}
	n := int(s.Count)
	if n > sessionSlotWindow {
		n = sessionSlotWindow
	}
	if n == 0 {
		return s
	}
	if now-sl.last.Load() > quantileStaleNs {
		s.Stale = true
		return s
	}
	scratch = scratch[:0]
	for i := 0; i < n; i++ {
		scratch = append(scratch, sl.ring[i].Load())
	}
	sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
	q := func(p float64) int64 { return scratch[int(p*float64(len(scratch)-1))] }
	s.P50Ns, s.P95Ns, s.P99Ns = q(0.50), q(0.95), q(0.99)
	return s
}

// reset clears a slot for reuse by a new owner (called under the sampler
// lock; the previous owner has already released its last message).
func (sl *SessionSlot) reset(id string) {
	for i := range sl.ring {
		sl.ring[i].Store(0)
	}
	sl.writes.Store(0)
	sl.last.Store(0)
	sl.violations.Store(0)
	sl.inViolation.Store(false)
	sl.id = id
}

// hhEntry is one space-saving sketch entry.
type hhEntry struct {
	id         string
	bytes      int64
	msgs       uint64
	sheds      uint64
	violations uint64
}

type hhShard struct {
	mu  sync.Mutex
	m   map[string]*hhEntry
	cap int
}

// touch finds or creates the entry for id, displacing the minimum-count
// entry when the shard is full, and applies the update in place.
func (sh *hhShard) touch(id string, bytes int64, msgs, sheds, violations uint64) {
	sh.mu.Lock()
	e := sh.m[id]
	if e == nil {
		if len(sh.m) < sh.cap {
			e = &hhEntry{id: id}
		} else {
			var min *hhEntry
			for _, cand := range sh.m {
				if min == nil || cand.msgs+cand.sheds < min.msgs+min.sheds {
					min = cand
				}
			}
			delete(sh.m, min.id)
			// Space-saving: the newcomer inherits the displaced count so
			// the sketch over-estimates, never under-estimates, frequency.
			min.id, min.bytes, min.sheds, min.violations = id, 0, 0, 0
			e = min
		}
		sh.m[id] = e
	}
	e.bytes += bytes
	e.msgs += msgs
	e.sheds += sheds
	e.violations += violations
	sh.mu.Unlock()
}

// HeavyHitter is one tracked session in the /sessions top-K lists.
type HeavyHitter struct {
	ID         string `json:"id"`
	Bytes      int64  `json:"bytes"`
	Msgs       uint64 `json:"msgs"`
	Sheds      uint64 `json:"sheds"`
	Violations uint64 `json:"violations"`
}

// SessionStatsSnapshot is the /sessions document: sampler state, every
// sampled session's windowed SLO, and the heavy-hitter top-K lists.
type SessionStatsSnapshot struct {
	SampleRate int    `json:"sampleRate"`
	Sampled    int    `json:"sampled"`
	SlotCap    int    `json:"slotCap"`
	Overflow   uint64 `json:"overflow"`
	// Samples lists every sampled session, sorted by id.
	Samples []SessionSLOSample `json:"samples"`
	// Top-K heavy hitters (K bounded by the snapshot caller), each sorted
	// descending on its dimension with the session id as tiebreak.
	TopBytes      []HeavyHitter `json:"topBytes"`
	TopSheds      []HeavyHitter `json:"topSheds"`
	TopViolations []HeavyHitter `json:"topViolations"`
}

// SessionStatsCollector owns the sampler slot pool and the heavy-hitter
// sketch. One process-wide instance (SessionStats()) serves every table.
type SessionStatsCollector struct {
	rateMask uint32
	slotCap  int

	mu     sync.Mutex
	free   []*SessionSlot
	active map[*SessionSlot]struct{}
	built  int // slots allocated so far (lazily, up to slotCap)

	shards [hhShards]hhShard

	sampled  *IntGauge // nil-safe; the default collector wires the catalog
	overflow *Counter
}

// NewSessionStatsCollector creates a collector sampling ~1/rate sessions
// (rate rounded up to a power of two, <=0 selects the default) with a pool
// of slotCap slots (<=0 selects the default).
func NewSessionStatsCollector(rate, slotCap int) *SessionStatsCollector {
	if rate <= 0 {
		rate = defaultSampleRate
	}
	for rate&(rate-1) != 0 {
		rate++
	}
	if slotCap <= 0 {
		slotCap = defaultSlotPool
	}
	c := &SessionStatsCollector{
		rateMask: uint32(rate - 1),
		slotCap:  slotCap,
		active:   make(map[*SessionSlot]struct{}),
	}
	for i := range c.shards {
		c.shards[i] = hhShard{m: make(map[string]*hhEntry, defaultHHPerShard), cap: defaultHHPerShard}
	}
	return c
}

var defaultSessionStats = func() *SessionStatsCollector {
	c := NewSessionStatsCollector(defaultSampleRate, defaultSlotPool)
	c.sampled = DefaultIntGauge(MSessionSampled)
	c.overflow = DefaultCounter(MSessionSampleOverflowTotal)
	return c
}()

// SessionStats returns the shared gateway-wide collector.
func SessionStats() *SessionStatsCollector { return defaultSessionStats }

// SampleRate returns the effective 1-in-N selection rate.
func (c *SessionStatsCollector) SampleRate() int { return int(c.rateMask) + 1 }

// AcquireSlot selects-or-skips a connecting session: hash is the session
// table's FNV-1a of the id, so selection is deterministic per id and free
// to compute. Returns nil for unselected sessions and for selections past
// the slot pool (counted as overflow). Control-plane path: may allocate
// (up to slotCap slots, lazily, ~2 KB each).
func (c *SessionStatsCollector) AcquireSlot(hash uint32, id string) *SessionSlot {
	if hash&c.rateMask != 0 {
		return nil
	}
	c.mu.Lock()
	var sl *SessionSlot
	switch {
	case len(c.free) > 0:
		sl = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	case c.built < c.slotCap:
		sl = &SessionSlot{}
		c.built++
	default:
		c.mu.Unlock()
		if c.overflow != nil {
			c.overflow.Inc()
		}
		return nil
	}
	sl.reset(id)
	c.active[sl] = struct{}{}
	c.mu.Unlock()
	if c.sampled != nil {
		c.sampled.Add(1)
	}
	return sl
}

// FreeSlot returns a closed session's slot to the pool. The caller must
// guarantee no further Observe can reach the slot (the session layer frees
// only after the final release).
func (c *SessionStatsCollector) FreeSlot(sl *SessionSlot) {
	if sl == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.active[sl]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.active, sl)
	c.free = append(c.free, sl)
	c.mu.Unlock()
	if c.sampled != nil {
		c.sampled.Add(-1)
	}
}

// shardFor picks the heavy-hitter shard by session hash.
func (c *SessionStatsCollector) shardFor(hash uint32) *hhShard {
	return &c.shards[hash&(hhShards-1)]
}

// ObserveRelease feeds one delivered message into the heavy-hitter sketch.
// Hot path for every session: one sharded lock and a map upsert, no
// allocation once the session's entry exists.
func (c *SessionStatsCollector) ObserveRelease(hash uint32, id string, bytes int64) {
	c.shardFor(hash).touch(id, bytes, 1, 0, 0)
}

// ObserveShed feeds one shed (quota or load) into the sketch.
func (c *SessionStatsCollector) ObserveShed(hash uint32, id string) {
	c.shardFor(hash).touch(id, 0, 0, 1, 0)
}

// ObserveViolation feeds one per-session SLO violation into the sketch.
func (c *SessionStatsCollector) ObserveViolation(hash uint32, id string) {
	c.shardFor(hash).touch(id, 0, 0, 0, 1)
}

// Snapshot renders the /sessions document with at most k entries per
// heavy-hitter list (<=0 selects 10).
func (c *SessionStatsCollector) Snapshot(k int) SessionStatsSnapshot {
	if k <= 0 {
		k = 10
	}
	now := MonoNow()
	c.mu.Lock()
	slots := make([]*SessionSlot, 0, len(c.active))
	ids := make([]string, 0, len(c.active))
	for sl := range c.active {
		slots = append(slots, sl)
		ids = append(ids, sl.id)
	}
	overflow := uint64(0)
	if c.overflow != nil {
		overflow = c.overflow.Value()
	}
	c.mu.Unlock()

	snap := SessionStatsSnapshot{
		SampleRate: c.SampleRate(),
		Sampled:    len(slots),
		SlotCap:    c.slotCap,
		Overflow:   overflow,
		Samples:    make([]SessionSLOSample, 0, len(slots)),
	}
	scratch := make([]int64, 0, sessionSlotWindow)
	for i, sl := range slots {
		smp := sl.snapshotAt(now, scratch)
		smp.ID = ids[i]
		snap.Samples = append(snap.Samples, smp)
	}
	sort.Slice(snap.Samples, func(i, j int) bool { return snap.Samples[i].ID < snap.Samples[j].ID })

	var all []HeavyHitter
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			all = append(all, HeavyHitter{ID: e.id, Bytes: e.bytes, Msgs: e.msgs, Sheds: e.sheds, Violations: e.violations})
		}
		sh.mu.Unlock()
	}
	snap.TopBytes = topK(all, k, func(h HeavyHitter) uint64 { return uint64(h.Bytes) })
	snap.TopSheds = topK(all, k, func(h HeavyHitter) uint64 { return h.Sheds })
	snap.TopViolations = topK(all, k, func(h HeavyHitter) uint64 { return h.Violations })
	return snap
}

// topK sorts a copy descending by key (session id as the deterministic
// tiebreak), drops zero-key entries, and keeps the first k.
func topK(all []HeavyHitter, k int, key func(HeavyHitter) uint64) []HeavyHitter {
	out := make([]HeavyHitter, 0, len(all))
	for _, h := range all {
		if key(h) > 0 {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		if ki != kj {
			return ki > kj
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
