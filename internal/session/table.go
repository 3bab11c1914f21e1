package session

import (
	"fmt"
	"time"

	"sync"
	"sync/atomic"

	"mobigate/internal/obs"
	"mobigate/internal/queue"
)

// Config parameterizes a Table. The zero value is usable: Defaults fills
// every unset field.
type Config struct {
	// Shards is the session-table shard count (rounded up to a power of
	// two). Default 64.
	Shards int
	// QuotaBytes bounds one session's outstanding bytes. Default 64 KiB.
	QuotaBytes int64
	// QuotaMessages bounds one session's outstanding messages. Default 256.
	QuotaMessages int64
	// MaxSessions is the admission controller's hard cap on live sessions
	// (0 = unlimited).
	MaxSessions int64
	// ShedBytes is the plane occupancy (queued bytes) above which the
	// load-shedder refuses posts from admitted sessions. Default 1 MiB.
	ShedBytes int
	// AdmitBytes is the plane occupancy above which the admission
	// controller refuses NEW sessions; it defaults to half of ShedBytes so
	// admission tightens before existing traffic starts shedding.
	AdmitBytes int
	// SLOBudget, when positive, configures a per-plane delivery-latency
	// budget on the shared obs SLO tracker; Release observations feed it.
	SLOBudget time.Duration
	// OnSLOViolation receives edge-triggered budget violations (nil for
	// counter-only tracking). Runs on the releasing goroutine.
	OnSLOViolation func(obs.SLOViolation)
	// stats receives the table's per-session samples and heavy-hitter
	// observations: the gateway-wide obs.SessionStats(), which /sessions
	// and /watch read. In-package tests set a private collector so exact
	// counts do not see another run's sessions.
	stats *obs.SessionStatsCollector
}

// Defaults returns cfg with every unset field filled in.
func (cfg Config) Defaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	for cfg.Shards&(cfg.Shards-1) != 0 {
		cfg.Shards++
	}
	if cfg.QuotaBytes <= 0 {
		cfg.QuotaBytes = 64 << 10
	}
	if cfg.QuotaMessages <= 0 {
		cfg.QuotaMessages = 256
	}
	if cfg.ShedBytes <= 0 {
		cfg.ShedBytes = 1 << 20
	}
	if cfg.AdmitBytes <= 0 {
		cfg.AdmitBytes = cfg.ShedBytes / 2
	}
	if cfg.stats == nil {
		cfg.stats = obs.SessionStats()
	}
	return cfg
}

// Plane is one shared data plane — typically the inlet queue of one
// deployed streamlet chain out of the instance pool the table spreads
// sessions across. Its occupancy is the saturation signal for both
// shedding layers.
type Plane struct {
	name string
	q    *queue.Queue
}

// NewPlane wraps a shared queue as a plane.
func NewPlane(name string, q *queue.Queue) *Plane { return &Plane{name: name, q: q} }

// Name returns the plane's name (also its SLO chain id).
func (p *Plane) Name() string { return p.name }

// Queue returns the underlying shared queue.
func (p *Plane) Queue() *queue.Queue { return p.q }

func (p *Plane) queuedBytes() int { return p.q.QueuedBytes() }

type tableShard struct {
	mu sync.RWMutex
	m  map[string]*Session
}

// Table owns every live session, sharded by session-id hash so connect and
// lookup scale across cores. One Table serves one stream's instance pool;
// sessions are pinned to a plane by the same hash.
type Table struct {
	cfg    Config
	planes []*Plane
	shards []tableShard
	mask   uint32

	live     atomic.Int64
	draining atomic.Int64

	connects    atomic.Uint64
	disconnects atomic.Uint64
	admitShed   atomic.Uint64
	loadShed    atomic.Uint64
	quotaShed   atomic.Uint64
	posted      atomic.Uint64
	delivered   atomic.Uint64
}

// NewTable creates a table over the given plane pool (at least one).
func NewTable(cfg Config, planes ...*Plane) (*Table, error) {
	if len(planes) == 0 {
		return nil, fmt.Errorf("session: table needs at least one plane")
	}
	cfg = cfg.Defaults()
	t := &Table{cfg: cfg, planes: planes, shards: make([]tableShard, cfg.Shards), mask: uint32(cfg.Shards - 1)}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*Session)
	}
	if cfg.SLOBudget > 0 {
		for _, p := range planes {
			obs.SLO().SetBudget(p.name, cfg.SLOBudget, cfg.OnSLOViolation)
		}
	}
	return t, nil
}

// Config returns the table's effective (default-filled) configuration.
func (t *Table) Config() Config { return t.cfg }

// fnv1a is the shard/plane hash — allocation-free on the connect path.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Connect admits a new session or sheds it. Admission is refused — without
// allocating any session state — when the table is at MaxSessions or the
// id's plane is already above AdmitBytes; both paths count into
// mobigate_session_admission_shed_total and journal a session-shed flight
// event (admission refusals are rare control-plane events, unlike
// per-message sheds).
func (t *Table) Connect(id string) (*Session, error) {
	h := fnv1a(id)
	plane := t.planes[int(h)%len(t.planes)]
	if t.cfg.MaxSessions > 0 {
		if t.live.Add(1) > t.cfg.MaxSessions {
			t.live.Add(-1)
			t.shedAdmission(id, "table-full")
			return nil, ErrAdmission
		}
	} else {
		t.live.Add(1)
	}
	if plane.queuedBytes() >= t.cfg.AdmitBytes {
		t.live.Add(-1)
		t.shedAdmission(id, "plane-saturated")
		return nil, ErrAdmission
	}
	s := &Session{id: id, table: t, plane: plane, hash: h}
	s.state.Store(int32(StateActive))
	s.lastActive.Store(obs.MonoNow())
	// Sampler selection is by the same hash the table shards by, so it is
	// deterministic per id and costs nothing extra here. The slot is
	// attached before the session is published to the shard map.
	s.slot = t.cfg.stats.AcquireSlot(h, id)
	sh := &t.shards[h&t.mask]
	sh.mu.Lock()
	if _, dup := sh.m[id]; dup {
		sh.mu.Unlock()
		t.live.Add(-1)
		t.cfg.stats.FreeSlot(s.slot)
		return nil, ErrDuplicate
	}
	sh.m[id] = s
	sh.mu.Unlock()
	t.connects.Add(1)
	mSessConnects.Inc()
	mSessLive.Add(1)
	if obs.SpansEnabled() {
		obs.FlightRecord(obs.FlightSessionConnect, id, plane.name, 0)
	}
	return s, nil
}

func (t *Table) shedAdmission(id, why string) {
	t.admitShed.Add(1)
	mSessAdmitShed.Inc()
	t.cfg.stats.ObserveShed(fnv1a(id), id)
	obs.FlightRecord(obs.FlightSessionShed, id, why, t.live.Load())
}

// Get returns the live session with the given id (nil when unknown or
// already disconnected).
func (t *Table) Get(id string) *Session {
	sh := &t.shards[fnv1a(id)&t.mask]
	sh.mu.RLock()
	s := sh.m[id]
	sh.mu.RUnlock()
	return s
}

// Disconnect removes the session from the table and starts its drain: no
// further posts are admitted, and the session closes when its last
// outstanding message is released (immediately when none are). Reports
// whether the id was live.
func (t *Table) Disconnect(id string) bool {
	sh := &t.shards[fnv1a(id)&t.mask]
	sh.mu.Lock()
	s := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	if s == nil {
		return false
	}
	s.beginDisconnect()
	return true
}

// Sweep demotes sessions quiet for longer than idleAfter from Active to
// Idle and returns how many it demoted. Idle is bookkeeping, not a
// barrier — the next Post promotes the session back — but it lets an
// operator (or the autopilot) distinguish a full table from a busy one.
func (t *Table) Sweep(idleAfter time.Duration) int {
	cut := obs.MonoNow() - int64(idleAfter)
	idled := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, s := range sh.m {
			if s.lastActive.Load() < cut &&
				s.state.CompareAndSwap(int32(StateActive), int32(StateIdle)) {
				idled++
			}
		}
		sh.mu.RUnlock()
	}
	return idled
}

// Len returns the number of live (active or idle) sessions.
func (t *Table) Len() int { return int(t.live.Load()) }

// Draining returns the number of sessions still draining after disconnect.
func (t *Table) Draining() int { return int(t.draining.Load()) }

// Stats is a consistent-enough snapshot of the table's lifetime counters;
// at quiescence Posted == Delivered and Live == Connects - Disconnects -
// (sessions still draining).
type Stats struct {
	Live, Draining        int64
	Connects, Disconnects uint64
	AdmissionShed         uint64
	LoadShed, QuotaShed   uint64
	Posted, Delivered     uint64
}

// Stats returns the table-wide counters.
func (t *Table) Stats() Stats {
	return Stats{
		Live:          t.live.Load(),
		Draining:      t.draining.Load(),
		Connects:      t.connects.Load(),
		Disconnects:   t.disconnects.Load(),
		AdmissionShed: t.admitShed.Load(),
		LoadShed:      t.loadShed.Load(),
		QuotaShed:     t.quotaShed.Load(),
		Posted:        t.posted.Load(),
		Delivered:     t.delivered.Load(),
	}
}

// Close disconnects every live session (draining ones finish on their own
// releases) and removes the planes' SLO budgets.
func (t *Table) Close() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		ids := make([]*Session, 0, len(sh.m))
		for _, s := range sh.m {
			ids = append(ids, s)
		}
		sh.m = make(map[string]*Session)
		sh.mu.Unlock()
		for _, s := range ids {
			s.beginDisconnect()
		}
	}
	if t.cfg.SLOBudget > 0 {
		for _, p := range t.planes {
			obs.SLO().Remove(p.name)
		}
	}
}
