// Package serve is the online prediction service: it hosts many
// concurrent prediction sessions — one (sender, size) message predictor
// per (tenant, stream) key — behind a sharded registry and an HTTP/JSON
// API, and persists learned predictor state in versioned snapshot files so
// a daemon restart does not forget periodicity it spent traffic learning.
//
// The paper's predictor is explicitly an online mechanism meant to live
// inside a communication runtime; this package is that runtime's serving
// shape: observe is the allocation-lean hot path (zero heap allocations
// per event in steady state, pinned by alloc_test.go), predictions reuse
// caller buffers, and sessions are evicted by LRU pressure and idle TTL
// so the registry holds a bounded working set no matter how many streams
// clients create.
package serve

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpipredict/internal/core"
	"mpipredict/internal/strategy"
)

// Config parameterizes a Registry. The zero value takes the defaults
// below.
type Config struct {
	// Shards is the number of independently locked registry shards.
	// Sessions are distributed by key hash; observes on different shards
	// never contend. Default 64.
	Shards int
	// MaxSessions bounds the total number of live sessions. The bound is
	// enforced per shard (MaxSessions/Shards, at least 1): creating a
	// session in a full shard evicts that shard's least recently used
	// one. Default 65536.
	MaxSessions int
	// IdleTTL is how long a session may go without an observe or predict
	// before SweepIdle evicts it. Zero selects the 15-minute default; a
	// negative value disables idle eviction.
	IdleTTL time.Duration
	// Strategy is the prediction strategy of sessions that do not request
	// one explicitly (strategy.Default when empty). It must be a
	// registered strategy name; NewRegistry panics otherwise, because an
	// unknown default would make every implicit session creation fail.
	Strategy string
	// Clock overrides the time source (tests). Default time.Now.
	Clock func() time.Time
}

// DefaultIdleTTL is the idle eviction horizon when Config.IdleTTL is zero.
const DefaultIdleTTL = 15 * time.Minute

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 65536
	}
	// The capacity bound is enforced per shard, so more shards than
	// sessions would silently multiply it (64 shards × min 1 session
	// each). Clamping the shard count keeps small explicit bounds exact.
	if c.MaxSessions < c.Shards {
		c.Shards = c.MaxSessions
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = DefaultIdleTTL
	}
	if c.Strategy == "" {
		c.Strategy = strategy.Default
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Forecast is the joint prediction for one future message of a session.
// Unlike scalability.MessageForecast it carries per-stream ok flags, so a
// client scoring only sender accuracy (the paper's Figures 3/4 protocol)
// sees exactly what the offline harness sees: the sender predictor's own
// abstentions, not the size predictor's.
type Forecast struct {
	Ahead    int   `json:"ahead"`
	Sender   int64 `json:"sender"`
	SenderOK bool  `json:"sender_ok"`
	Size     int64 `json:"size"`
	SizeOK   bool  `json:"size_ok"`
	// OK is SenderOK && SizeOK: the joint forecast a buffer
	// pre-allocator needs.
	OK bool `json:"ok"`
}

// SessionInfo is the introspection view of one session. SenderState,
// SenderPeriod and their size twins carry the DPD's learning/locked state
// and detected period; strategies without that notion report "n/a" and
// omit the period.
type SessionInfo struct {
	Tenant   string `json:"tenant"`
	Stream   string `json:"stream"`
	Strategy string `json:"strategy"`
	Observed int64  `json:"observed"`
	// LastSeq is the highest applied batch sequence number (0 when the
	// session has never been fed sequenced batches).
	LastSeq      int64  `json:"last_seq,omitempty"`
	SenderState  string `json:"sender_state"`
	SenderPeriod int    `json:"sender_period,omitempty"`
	SizeState    string `json:"size_state"`
	SizePeriod   int    `json:"size_period,omitempty"`
	// CreatedUnix and LastSeenUnix are Unix seconds of session creation
	// and the most recent observe/forecast. Snapshot files deliberately
	// hold no timestamps (the byte-stability contract), so after a warm
	// restart both report the restore time, not the original creation.
	CreatedUnix  int64   `json:"created_unix"`
	LastSeenUnix int64   `json:"last_observe_unix"`
	IdleSeconds  float64 `json:"idle_s"`
	// Meta carries the adaptive router's telemetry for sessions whose
	// strategy routes among experts (the meta strategy); nil otherwise.
	Meta *SessionMetaInfo `json:"meta,omitempty"`
}

// SessionMetaInfo is the per-session view of the meta router: which
// expert each stream currently routes to, how often the routes have
// switched, and every expert's rolling windowed hit rate per stream.
type SessionMetaInfo struct {
	SenderLeader string             `json:"sender_leader"`
	SizeLeader   string             `json:"size_leader"`
	Switches     int64              `json:"switches"`
	SenderRates  map[string]float64 `json:"sender_hit_rates"`
	SizeRates    map[string]float64 `json:"size_hit_rates"`
}

// MetaStats aggregates router telemetry across every meta session: how
// many sessions route adaptively, the total switch count, how many
// streams each expert currently leads, and each expert's hit rate over
// the union of all rolling windows (exact Σhits/Σscored, not a mean of
// per-session rates).
type MetaStats struct {
	Sessions int                `json:"sessions"`
	Switches int64              `json:"switches"`
	Leaders  map[string]int     `json:"leaders"`
	HitRates map[string]float64 `json:"hit_rates"`
}

type sessionKey struct {
	tenant, stream string
}

// session is the per-(tenant, stream) state: one prediction strategy for
// the sender stream, one for the size stream, and bookkeeping for
// eviction. The strategy is fixed at session creation (first observe) and
// shared by both streams. Sessions are owned by exactly one shard and only
// touched under its lock, which serializes each session's observation
// order — the property the per-session determinism tests pin.
type session struct {
	key      sessionKey
	strategy string
	sender   strategy.Strategy
	size     strategy.Strategy
	observed int64
	// lastSeq is the highest batch sequence number applied to this
	// session (0 when the session has never seen a sequenced batch). A
	// batch carrying a seq at or below it is a duplicate delivery — a
	// client retry of a request whose response was lost — and is dropped
	// without observing, which turns at-least-once retries into
	// effectively-once learning. It persists in snapshots, so dedup
	// survives a crash-restart.
	lastSeq  int64
	created  time.Time
	lastSeen time.Time
	elem     *list.Element
}

type shard struct {
	mu       sync.Mutex
	sessions map[sessionKey]*session
	lru      list.List // front = most recently used; values are *session
}

// Registry is the sharded session table. All methods are safe for
// concurrent use.
type Registry struct {
	cfg      Config
	perShard int
	shards   []shard

	created     atomic.Int64
	restored    atomic.Int64
	evictedLRU  atomic.Int64
	evictedIdle atomic.Int64
	events      atomic.Int64
	forecasts   atomic.Int64
	missed      atomic.Int64
	dupBatches  atomic.Int64
}

// NewRegistry returns an empty registry. The shard array is fixed at
// construction; it never grows or rehashes. It panics when cfg.Strategy
// names an unregistered strategy (a programming error; the daemon
// validates its flag before constructing).
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	if !strategy.Known(cfg.Strategy) {
		panic(fmt.Sprintf("serve: unknown default strategy %q (known: %v)", cfg.Strategy, strategy.Names()))
	}
	perShard := cfg.MaxSessions / cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	r := &Registry{cfg: cfg, perShard: perShard, shards: make([]shard, cfg.Shards)}
	for i := range r.shards {
		r.shards[i].sessions = make(map[sessionKey]*session)
	}
	return r
}

// shardFor hashes the key with FNV-1a, inlined so the hot path never
// allocates a joined key string.
func (r *Registry) shardFor(tenant, stream string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint64(tenant[i])) * prime64
	}
	h = (h ^ 0xff) * prime64 // separator: ("ab","c") must not collide with ("a","bc")
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * prime64
	}
	return &r.shards[h%uint64(len(r.shards))]
}

// ErrStrategyMismatch is returned when an observe names a strategy that
// differs from the one an existing session was created with. A session's
// strategy is fixed at first observe; requests that omit the strategy
// (strat == "") always match.
var ErrStrategyMismatch = fmt.Errorf("serve: session strategy mismatch")

// getLocked returns the session for key, creating it (and evicting the
// shard's LRU session if the shard is full) when absent. A new session is
// built with the strat strategy (empty selects the registry default); an
// existing session is only returned when strat is empty or matches.
// Caller holds sh.mu.
func (r *Registry) getLocked(sh *shard, tenant, stream, strat string) (*session, error) {
	key := sessionKey{tenant, stream}
	if s := sh.sessions[key]; s != nil {
		if strat != "" && strat != s.strategy {
			return nil, fmt.Errorf("%w: session %s/%s uses %q, request asked for %q",
				ErrStrategyMismatch, tenant, stream, s.strategy, strat)
		}
		sh.lru.MoveToFront(s.elem)
		return s, nil
	}
	if strat == "" {
		strat = r.cfg.Strategy
	}
	sender, err := strategy.New(strat, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	size, err := strategy.New(strat, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	r.evictForRoomLocked(sh)
	s := &session{
		key:      key,
		strategy: strat,
		sender:   sender,
		size:     size,
		created:  r.cfg.Clock(),
	}
	s.elem = sh.lru.PushFront(s)
	sh.sessions[key] = s
	r.created.Add(1)
	return s, nil
}

func (r *Registry) removeLocked(sh *shard, s *session) {
	sh.lru.Remove(s.elem)
	delete(sh.sessions, s.key)
}

// evictForRoomLocked evicts the shard's least recently used sessions
// until one more fits, counting each eviction. Caller holds sh.mu.
func (r *Registry) evictForRoomLocked(sh *shard) {
	for len(sh.sessions) >= r.perShard {
		oldest := sh.lru.Back()
		if oldest == nil {
			break
		}
		r.removeLocked(sh, oldest.Value.(*session))
		r.evictedLRU.Add(1)
	}
}

// keyLess is the canonical session ordering used by every listing and by
// the snapshot writer (where it is what makes files byte-stable).
func keyLess(t1, s1, t2, s2 string) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return s1 < s2
}

// ObserveBlockSeq is the registry's one ingest method. It feeds a column
// pair — parallel sender and size arrays, the layout of one
// stream.EventBlock — to the (tenant, stream) session under a single shard
// lock and returns the session's observed total afterwards. Both listeners
// and the replay ingesters land here, and for an existing session it
// performs zero heap allocations whatever the column length (pinned by
// alloc_test.go). The slices are only read; they must be non-empty and of
// equal length, and nothing is observed otherwise.
//
// A new session is created with the strat strategy (empty selects the
// registry default). An existing session refuses a non-empty strat that
// differs from its own with ErrStrategyMismatch. A positive seq marks the
// block as one delivery of a per-session increasing sequence: a seq at or
// below the session's last applied one drops the block as a duplicate
// (duplicate true, nothing observed, current total returned), which turns
// at-least-once retries into effectively-once learning. Seq zero is
// unsequenced: the block always applies and the session's sequence state
// is untouched.
func (r *Registry) ObserveBlockSeq(tenant, stream, strat string, seq int64, senders, sizes []int64) (total int64, duplicate bool, err error) {
	if len(senders) == 0 || len(senders) != len(sizes) {
		return 0, false, fmt.Errorf("serve: observe block needs equal non-empty columns, got %d senders and %d sizes", len(senders), len(sizes))
	}
	sh := r.shardFor(tenant, stream)
	sh.mu.Lock()
	s, err := r.getLocked(sh, tenant, stream, strat)
	if err != nil {
		sh.mu.Unlock()
		return 0, false, err
	}
	if seq > 0 && seq <= s.lastSeq {
		total = s.observed
		sh.mu.Unlock()
		r.dupBatches.Add(1)
		return total, true, nil
	}
	for i := range senders {
		s.sender.Observe(senders[i])
		s.size.Observe(sizes[i])
	}
	s.observed += int64(len(senders))
	if seq > 0 {
		s.lastSeq = seq
	}
	s.lastSeen = r.cfg.Clock()
	total = s.observed
	sh.mu.Unlock()
	r.events.Add(int64(len(senders)))
	return total, false, nil
}

// ForecastInto appends forecasts for the next k messages of the session to
// dst and returns it. ok is false when the session does not exist (the
// registry never creates sessions on the predict path — an unknown key is
// the caller's signal, not new state). A query counts as session activity
// for LRU and idle purposes. With a pre-sized dst this performs zero heap
// allocations.
func (r *Registry) ForecastInto(dst []Forecast, tenant, stream string, k int) (_ []Forecast, observed int64, ok bool) {
	sh := r.shardFor(tenant, stream)
	sh.mu.Lock()
	s := sh.sessions[sessionKey{tenant, stream}]
	if s == nil {
		sh.mu.Unlock()
		r.missed.Add(1)
		return dst, 0, false
	}
	sh.lru.MoveToFront(s.elem)
	s.lastSeen = r.cfg.Clock()
	for ahead := 1; ahead <= k; ahead++ {
		sv, sok := s.sender.Predict(ahead)
		zv, zok := s.size.Predict(ahead)
		dst = append(dst, Forecast{
			Ahead:  ahead,
			Sender: sv, SenderOK: sok,
			Size: zv, SizeOK: zok,
			OK: sok && zok,
		})
	}
	observed = s.observed
	sh.mu.Unlock()
	r.forecasts.Add(1)
	return dst, observed, true
}

func (r *Registry) infoLocked(s *session) SessionInfo {
	info := SessionInfo{
		Tenant:       s.key.tenant,
		Stream:       s.key.stream,
		Strategy:     s.strategy,
		Observed:     s.observed,
		LastSeq:      s.lastSeq,
		SenderState:  strategyState(s.sender),
		SizeState:    strategyState(s.size),
		CreatedUnix:  s.created.Unix(),
		LastSeenUnix: s.lastSeen.Unix(),
		IdleSeconds:  r.cfg.Clock().Sub(s.lastSeen).Seconds(),
	}
	if p, ok := strategyPeriod(s.sender); ok {
		info.SenderPeriod = p
	}
	if p, ok := strategyPeriod(s.size); ok {
		info.SizePeriod = p
	}
	if sr, ok := s.sender.(strategy.RouteReporter); ok {
		if zr, ok := s.size.(strategy.RouteReporter); ok {
			si, zi := sr.RouteInfo(), zr.RouteInfo()
			info.Meta = &SessionMetaInfo{
				SenderLeader: si.Leader,
				SizeLeader:   zi.Leader,
				Switches:     si.Switches + zi.Switches,
				SenderRates:  routeRates(si),
				SizeRates:    routeRates(zi),
			}
		}
	}
	return info
}

// routeRates flattens a RouteInfo into the expert→rate map the session
// listing serves.
func routeRates(info strategy.RouteInfo) map[string]float64 {
	rates := make(map[string]float64, len(info.Experts))
	for _, e := range info.Experts {
		rates[e.Name] = e.Rate
	}
	return rates
}

// strategyState reports a strategy's discrete state when it has one (the
// DPD's learning/locked); strategies without the notion report "n/a".
func strategyState(st strategy.Strategy) string {
	if r, ok := st.(strategy.StateReporter); ok {
		return r.PredictorState()
	}
	return "n/a"
}

// strategyPeriod reports a strategy's detected pattern length when it
// exposes one.
func strategyPeriod(st strategy.Strategy) (int, bool) {
	if r, ok := st.(strategy.PeriodReporter); ok {
		return r.PredictorPeriod()
	}
	return 0, false
}

// Sessions lists every live session, sorted by (tenant, stream) so the
// listing is deterministic regardless of shard and map iteration order.
func (r *Registry) Sessions() []SessionInfo {
	var out []SessionInfo
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, s := range sh.sessions {
			out = append(out, r.infoLocked(s))
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return keyLess(out[i].Tenant, out[i].Stream, out[j].Tenant, out[j].Stream)
	})
	return out
}

// SessionsPage returns one window of the canonical (tenant, stream)
// ordering — the page [offset, offset+limit) — together with the total
// live session count, so callers can page through a large registry in
// bounded responses. The full sweep-and-sort still happens per call (the
// listing is a cold path; sessions move shards never, but keys appear and
// vanish constantly, so a cached ordering would be stale the moment it
// was built); only the response is bounded. A non-positive limit or an
// offset past the end yields an empty page with the true total.
func (r *Registry) SessionsPage(offset, limit int) ([]SessionInfo, int) {
	all := r.Sessions()
	total := len(all)
	if offset < 0 {
		offset = 0
	}
	if limit <= 0 || offset >= total {
		return nil, total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	return all[offset:end], total
}

// Len returns the number of live sessions.
func (r *Registry) Len() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += len(sh.sessions)
		sh.mu.Unlock()
	}
	return n
}

// SweepIdle evicts every session idle for at least the configured IdleTTL
// and returns how many it removed. The daemon calls it on a ticker; it is
// a no-op when idle eviction is disabled.
func (r *Registry) SweepIdle() int {
	if r.cfg.IdleTTL < 0 {
		return 0
	}
	cutoff := r.cfg.Clock().Add(-r.cfg.IdleTTL)
	evicted := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		// The LRU back is the least recently touched session, so the scan
		// stops at the first fresh one.
		for {
			oldest := sh.lru.Back()
			if oldest == nil {
				break
			}
			s := oldest.Value.(*session)
			if s.lastSeen.After(cutoff) {
				break
			}
			r.removeLocked(sh, s)
			evicted++
		}
		sh.mu.Unlock()
	}
	r.evictedIdle.Add(int64(evicted))
	return evicted
}

// MetaStats aggregates adaptive-router telemetry across every session
// whose strategy is a meta router. Rates are computed from summed
// windowed hits and scored counts, so a stream observed a million times
// weighs no more than its window — exactly the per-session semantics,
// aggregated.
func (r *Registry) MetaStats() MetaStats {
	stats := MetaStats{Leaders: map[string]int{}, HitRates: map[string]float64{}}
	hits := map[string]int{}
	scored := map[string]int{}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, s := range sh.sessions {
			counted := false
			for _, st := range []strategy.Strategy{s.sender, s.size} {
				rr, ok := st.(strategy.RouteReporter)
				if !ok {
					continue
				}
				counted = true
				info := rr.RouteInfo()
				stats.Switches += info.Switches
				stats.Leaders[info.Leader]++
				for _, e := range info.Experts {
					hits[e.Name] += e.Hits
					scored[e.Name] += e.Scored
				}
			}
			if counted {
				stats.Sessions++
			}
		}
		sh.mu.Unlock()
	}
	for name, sc := range scored {
		if sc > 0 {
			stats.HitRates[name] = float64(hits[name]) / float64(sc)
		}
	}
	return stats
}

// SnapshotSessions captures every session's predictor state, sorted by
// (tenant, stream). The deterministic order is what makes snapshot files
// byte-for-byte reproducible: snapshotting, restoring and snapshotting
// again yields the identical byte stream.
func (r *Registry) SnapshotSessions() []SessionSnapshot {
	var out []SessionSnapshot
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, s := range sh.sessions {
			out = append(out, SessionSnapshot{
				Tenant:   s.key.tenant,
				Stream:   s.key.stream,
				Strategy: s.strategy,
				Observed: s.observed,
				LastSeq:  s.lastSeq,
				Sender:   s.sender.Snapshot(),
				Size:     s.size.Snapshot(),
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return keyLess(out[i].Tenant, out[i].Stream, out[j].Tenant, out[j].Stream)
	})
	return out
}

// RestoreSessions rebuilds sessions from snapshots, replacing any existing
// session with the same key. Every snapshot is validated before any state
// is touched, so a corrupt snapshot set restores nothing rather than half
// of itself.
func (r *Registry) RestoreSessions(snaps []SessionSnapshot) error {
	restored := make([]*session, 0, len(snaps))
	for _, snap := range snaps {
		// Normalize a hand-constructed snapshot's empty strategy to the
		// name it restores as: storing "" would make the session
		// unmatchable by a named observe and the next checkpoint
		// unwritable.
		strat := snap.Strategy
		if strat == "" {
			strat = strategy.Default
		}
		sender, err := strategy.Restore(strat, snap.Sender)
		if err != nil {
			return err
		}
		size, err := strategy.Restore(strat, snap.Size)
		if err != nil {
			return err
		}
		restored = append(restored, &session{
			key:      sessionKey{snap.Tenant, snap.Stream},
			strategy: strat,
			sender:   sender,
			size:     size,
			observed: snap.Observed,
			lastSeq:  snap.LastSeq,
		})
	}
	now := r.cfg.Clock()
	for _, s := range restored {
		s.created = now
		s.lastSeen = now
		sh := r.shardFor(s.key.tenant, s.key.stream)
		sh.mu.Lock()
		if old := sh.sessions[s.key]; old != nil {
			r.removeLocked(sh, old)
		}
		r.evictForRoomLocked(sh)
		s.elem = sh.lru.PushFront(s)
		sh.sessions[s.key] = s
		sh.mu.Unlock()
		r.restored.Add(1)
	}
	return nil
}
