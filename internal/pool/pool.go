// Package pool implements the serving layer's VM session pool: a bounded,
// leased collection of fully isolated runtimes — each session owns its own
// simulated address space, Java/native heaps, threads and tag state — with
// warm reuse between requests, admission control with backpressure, and
// per-session fault quarantine.
//
// Isolation is the point. One tenant's MTE tag-check fault is that session's
// crash: the session is quarantined (its VM closed and unmapped via
// vm.Close, never returned to the warm pool) while every other session's
// space, tags and TCO state are untouched. That is what lets one daemon
// serve many mutually untrusting workloads the way a fleet of Android
// processes would, with the fault localized exactly as the paper's Figure 4
// localizes it within one process.
//
// Admission is sharded (Config.Shards): capacity tokens, warm free lists
// and waiter queues are split into per-shard domains behind a {tenant,
// scheme} affinity hash, with cross-shard work stealing in both directions
// so the split stays work-conserving under skew — see shard.go. One shard
// (the default) reproduces the monolithic pool exactly.
package pool

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mte4jni"
	"mte4jni/internal/exec"
	"mte4jni/internal/mem"
)

// Errors returned by Acquire.
var (
	// ErrOverloaded is the backpressure signal: the pool is at capacity and
	// the waiting queue is full. Servers map it to HTTP 503.
	ErrOverloaded = errors.New("pool: overloaded: all sessions leased and wait queue full")
	// ErrClosed reports an Acquire after Close.
	ErrClosed = errors.New("pool: closed")
)

// Config sizes a Pool.
type Config struct {
	// MaxSessions bounds concurrently live sessions across all schemes
	// (default 64).
	MaxSessions int
	// MaxWaiters bounds Acquire calls allowed to queue when every session
	// slot is leased; further calls fail fast with ErrOverloaded (default
	// 4×MaxSessions). The bound is applied per shard (MaxWaiters/Shards
	// each) with the pool-wide total as a backstop.
	MaxWaiters int
	// Shards is the admission shard count (default 1). Capacity tokens,
	// warm free lists and waiter queues split evenly across shards;
	// requests route by the {tenant, scheme} affinity hash and spill over
	// through work stealing.
	Shards int
	// HeapSize is each session's Java heap capacity (default 32 MiB, enough
	// for every built-in workload at serving scale while keeping 64
	// sessions' worth of simulated memory modest).
	HeapSize uint64
	// Seed is the base tag-RNG seed; session n runs with Seed+n so sessions
	// are mutually decorrelated but a pool run is reproducible (default 1).
	Seed int64
	// DisableNeighborExclusion turns off the tag neighbour-exclusion
	// extension. The serving default keeps it on so that deliberately
	// out-of-bounds requests fault deterministically — the property the
	// static/dynamic differential and the load generator's fault-injection
	// accounting rely on.
	DisableNeighborExclusion bool
	// Defense is the escalating per-tenant defense policy (see defense.go).
	// Disabled by default. Tenant standing is pool-global: escalation
	// follows a tenant across shards.
	Defense DefenseConfig
}

func (c *Config) defaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxWaiters <= 0 {
		c.MaxWaiters = 4 * c.MaxSessions
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.HeapSize == 0 {
		c.HeapSize = 32 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Defense.defaults()
}

// Stats is a point-in-time view of pool accounting. The lease-path counters
// (Created, Reused, Rejected, Leased, Idle, Waiters) are sums over Shards.
type Stats struct {
	// Capacity and Leased describe the slot semaphore; Idle counts warm
	// sessions parked per scheme (summed).
	Capacity int `json:"capacity"`
	Leased   int `json:"leased"`
	Idle     int `json:"idle"`
	Waiters  int `json:"waiters"`
	// Created counts VM constructions; Reused counts leases served warm.
	Created uint64 `json:"created"`
	Reused  uint64 `json:"reused"`
	// Quarantined counts sessions retired by an MTE fault; Retired counts
	// sessions retired for hygiene (leaked objects, unreleased handouts,
	// recycle failure); Rejected counts ErrOverloaded admissions.
	Quarantined uint64 `json:"quarantined"`
	Retired     uint64 `json:"retired"`
	Rejected    uint64 `json:"rejected"`
	// CanceledLeases counts leases released after a canceled or
	// deadline-exceeded run — each went through the dirty-lease path
	// (GC-verified recycle, or retirement when the interrupted native left
	// JNI acquisitions outstanding), never a blind re-lease.
	CanceledLeases uint64 `json:"canceled_leases"`
	// Escalating-defense counters (see defense.go): ReseedsTotal counts
	// reseed-epoch bumps (tier crossings), SessionsReseeded counts warm
	// sessions that actually re-seeded at lease time, ThrottledTotal counts
	// delay-tier admissions, TenantsQuarantined counts tenants escalated to
	// outright refusal, DecaysTotal counts time-based tier step-downs
	// (DecayInterval). All zero unless Config.Defense is enabled.
	ReseedsTotal       uint64 `json:"reseeds_total"`
	SessionsReseeded   uint64 `json:"sessions_reseeded_total"`
	ThrottledTotal     uint64 `json:"throttled_total"`
	TenantsQuarantined uint64 `json:"tenants_quarantined_total"`
	DecaysTotal        uint64 `json:"defense_decays_total"`
	// Shards is the per-shard breakdown: admission, stealing and shedding
	// counters for each admission domain.
	Shards []ShardStats `json:"shards,omitempty"`
}

// QuarantineRecord remembers why a session left the pool.
type QuarantineRecord struct {
	Session  string `json:"session"`
	Scheme   string `json:"scheme"`
	Reason   string `json:"reason"`
	UnixNano int64  `json:"unix_nano"`
}

// Pool is the leased session pool. All methods are safe for concurrent use.
type Pool struct {
	cfg             Config
	shards          []*shard
	perShardWaiters int

	closed  atomic.Bool
	waiting atomic.Int64 // queued Acquires pool-wide (the shed backstop)
	nextID  atomic.Uint64
	// reseedEpoch is bumped on every defense tier crossing (under mu, in
	// ObserveFault) and read lock-free on the warm-lease path; warm
	// sessions re-seed lazily when their own epoch lags it.
	reseedEpoch      atomic.Uint64
	sessionsReseeded atomic.Uint64

	// mu guards the pool-global cold state: retirement accounting, the
	// quarantine ring, departed-session tag carry-over, and the per-tenant
	// defense ledger (tenant standing is deliberately not sharded — an
	// attacker's escalation follows it to every shard).
	mu     sync.Mutex
	stats  Stats              // only the pool-global counters
	recent []QuarantineRecord // bounded at quarantineLog entries
	// retiredTags carries forward the monotonic tag- and data-page counters
	// of sessions that have left the pool, so the pool-wide totals in
	// TagStats never go backwards when a session is retired. Gauge fields
	// (resident/dir/freelist/mapped bytes) die with the session's space and
	// are not accumulated.
	retiredTags mem.TagStats
	tenants     map[string]*tenantState

	// now is the defense policy's clock: time.Now, which tests replace to
	// step through decay intervals without sleeping.
	now func() time.Time
}

// quarantineLog bounds the retained quarantine history.
const quarantineLog = 32

// New creates a pool. Sessions are built lazily on first lease per slot, so
// an idle daemon costs nothing.
func New(cfg Config) *Pool {
	cfg.defaults()
	p := &Pool{
		cfg:     cfg,
		tenants: make(map[string]*tenantState),
		now:     time.Now,
	}
	p.perShardWaiters = cfg.MaxWaiters / cfg.Shards
	if p.perShardWaiters < 1 {
		p.perShardWaiters = 1
	}
	p.shards = make([]*shard, cfg.Shards)
	for i := range p.shards {
		sh := &shard{
			p:        p,
			idx:      i,
			capacity: cfg.MaxSessions / cfg.Shards,
			warmIdle: make(map[mte4jni.Scheme][]*Session),
			liveHere: make(map[uint64]*Session),
		}
		if i < cfg.MaxSessions%cfg.Shards {
			sh.capacity++
		}
		sh.freeTokens = sh.capacity
		p.shards[i] = sh
	}
	return p
}

// Config returns the configuration in force (with defaults applied).
func (p *Pool) Config() Config { return p.cfg }

// Acquire leases a session running the given scheme, waiting while the pool
// is at capacity. It fails fast with ErrOverloaded when the waiting queue is
// itself full, and with ctx.Err() when the context expires first.
func (p *Pool) Acquire(ctx context.Context, scheme mte4jni.Scheme) (*Session, error) {
	return p.AcquireFor(ctx, scheme, "")
}

// AcquireFor is Acquire with tenant attribution, which picks the home shard
// (affinity hash over {tenant, scheme}) and feeds the escalating defense
// policy: a quarantined tenant is refused with ErrTenantQuarantined before
// any capacity token is taken (so a locked-out attacker can neither hold a
// slot nor grow the quarantine ring), and a delay-tier tenant pays the
// admission penalty first. The empty tenant bypasses the policy entirely.
func (p *Pool) AcquireFor(ctx context.Context, scheme mte4jni.Scheme, tenant string) (*Session, error) {
	if err := p.admitTenant(ctx, tenant); err != nil {
		return nil, err
	}
	if p.closed.Load() {
		return nil, ErrClosed
	}
	home := p.shards[p.HomeShard(tenant, scheme)]
	if home.tryTakeToken() {
		return p.wrapLease(p.leaseOn(home, scheme, false))
	}
	// Home saturated: overflow onto any shard with a free token
	// (acquire-side work stealing).
	for i := 1; i < len(p.shards); i++ {
		sh := p.shards[(home.idx+i)%len(p.shards)]
		if sh.tryTakeToken() {
			return p.wrapLease(p.leaseOn(sh, scheme, true))
		}
	}
	// Every shard saturated: park on the home queue and wait for a token
	// grant from any shard.
	w, err := p.enqueueWaiter(home, scheme)
	if err != nil {
		return nil, err
	}
	// A token may have freed between the saturation scan and the enqueue,
	// with no queued waiter visible to dispatch it to. Re-scan now that we
	// are visible: either this scan finds that token, or the freer's
	// dispatch/steal path finds us (offerToken re-checks symmetrically).
	for i := 0; i < len(p.shards); i++ {
		sh := p.shards[(home.idx+i)%len(p.shards)]
		if !sh.tryTakeToken() {
			continue
		}
		if home.removeWaiter(w) {
			return p.wrapLease(p.leaseOn(sh, scheme, sh != home))
		}
		// Granted concurrently: keep the granted token, free the scanned one.
		p.returnToken(sh)
		g := <-w.ready
		if g.from == nil {
			return nil, ErrClosed
		}
		return p.wrapLease(p.leaseOn(g.from, scheme, g.from != home))
	}
	select {
	case g := <-w.ready:
		if g.from == nil {
			return nil, ErrClosed
		}
		return p.wrapLease(p.leaseOn(g.from, scheme, g.from != home))
	case <-ctx.Done():
		if home.removeWaiter(w) {
			return nil, ctx.Err()
		}
		// Granted concurrently with the cancellation: the grant is already
		// buffered (popWaiterLocked sends under the queue lock). Give the
		// token back so it cannot leak.
		g := <-w.ready
		if g.from != nil {
			p.returnToken(g.from)
		}
		return nil, ctx.Err()
	}
}

// wrapLease decorates session-creation failures from leaseOn.
func (p *Pool) wrapLease(s *Session, err error) (*Session, error) {
	if err != nil && !errors.Is(err, ErrClosed) {
		return nil, fmt.Errorf("pool: creating session: %w", err)
	}
	return s, err
}

// Release returns a leased session. A session whose lease saw an MTE fault
// is quarantined — closed and replaced, never reused; a canceled or
// deadline-aborted lease is dirty: it still goes through the GC-verified
// recycle below, except that an interrupted native body that left JNI
// acquisitions outstanding retires the session outright (detaching a thread
// with live handouts would tear pinned objects out from under the ledger).
// A healthy session is recycled (thread detached, garbage collected,
// hygiene-checked) back into the warm pool — unless the lease never ran and
// never touched the heap, in which case the recycle is skipped outright (the
// no-op-lease fast path: there is nothing to detach, collect or
// hygiene-check, so admission stays the only cost of an empty lease). The
// capacity token is returned to the session's shard in every path.
func (p *Pool) Release(s *Session) {
	sh := s.home
	if f := s.TaintFault(); f != nil {
		p.retire(s, true, fmt.Sprintf("MTE fault: %v", f))
		return
	}
	if a := s.Abort(); a == exec.AbortCanceled || a == exec.AbortDeadline {
		p.mu.Lock()
		p.stats.CanceledLeases++
		p.mu.Unlock()
		if n := s.env.OutstandingAcquisitions(); n != 0 {
			p.retire(s, false, fmt.Sprintf("lease aborted (%s) with %d outstanding JNI acquisitions", a, n))
			return
		}
	}
	if !s.noopLease() {
		if err := s.recycle(); err != nil {
			p.retire(s, false, err.Error())
			return
		}
	}
	sh.mu.Lock()
	if sh.closed {
		delete(sh.liveHere, s.id)
		sh.mu.Unlock()
		s.close()
		p.mu.Lock()
		p.accumulateTagsLocked(s)
		p.mu.Unlock()
		p.returnToken(sh)
		return
	}
	sh.warmIdle[s.scheme] = append(sh.warmIdle[s.scheme], s)
	sh.mu.Unlock()
	p.returnToken(sh)
}

// Retire takes a leased session out of service instead of releasing it:
// the session is closed, its capacity token goes back to its shard, and the
// reason lands in the retirement log (counted under Retired). The serving
// layer retires a session whose run ended in a Go panic — nothing about its
// state can be trusted, and a rebuild is cheap.
func (p *Pool) Retire(s *Session, reason string) { p.retire(s, false, reason) }

// retire closes a session and records why.
func (p *Pool) retire(s *Session, quarantine bool, reason string) {
	s.close()
	sh := s.home
	sh.mu.Lock()
	delete(sh.liveHere, s.id)
	sh.mu.Unlock()
	p.mu.Lock()
	p.accumulateTagsLocked(s)
	if quarantine {
		p.stats.Quarantined++
	} else {
		p.stats.Retired++
	}
	p.recent = append(p.recent, QuarantineRecord{
		Session: s.Name(), Scheme: s.scheme.String(), Reason: reason,
		UnixNano: time.Now().UnixNano(),
	})
	if len(p.recent) > quarantineLog {
		p.recent = p.recent[len(p.recent)-quarantineLog:]
	}
	p.mu.Unlock()
	p.returnToken(sh)
}

// accumulateTagsLocked folds a departing session's monotonic storage
// counters into the pool carry-over. Caller holds p.mu; the session is
// already closed, so its counters are final.
func (p *Pool) accumulateTagsLocked(s *Session) {
	st := s.rt.VM().Space.TagStats()
	p.retiredTags.PagesMaterialized += st.PagesMaterialized
	p.retiredTags.PagesUniform += st.PagesUniform
	p.retiredTags.ZeroDedupHits += st.ZeroDedupHits
	p.retiredTags.DataPagesMaterialized += st.DataPagesMaterialized
}

// TagStats aggregates storage accounting across the pool: monotonic
// counters (tag page materializations, uniform swaps, zero-dedup hits, data
// page materializations) sum over live *and* departed sessions, while the
// residency gauges (BytesResident, BytesFlatEquiv,
// DataBytesResident, DataBytesMapped, page counts) reflect only sessions
// currently live — resident against flat-equivalent (tags) or mapped (data)
// bytes is the pool's real memory footprint against what eager flat storage
// would pay for the same mappings.
func (p *Pool) TagStats() mem.TagStats {
	p.mu.Lock()
	agg := p.retiredTags
	p.mu.Unlock()
	var sessions []*Session
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, s := range sh.liveHere {
			sessions = append(sessions, s)
		}
		sh.mu.Unlock()
	}
	// Per-session reads happen outside the shard locks: Space.TagStats is
	// atomics only, safe against the session running.
	for _, s := range sessions {
		st := s.rt.VM().Space.TagStats()
		agg.PagesMaterialized += st.PagesMaterialized
		agg.PagesUniform += st.PagesUniform
		agg.ZeroDedupHits += st.ZeroDedupHits
		agg.PagesResident += st.PagesResident
		agg.DirBytes += st.DirBytes
		agg.BytesResident += st.BytesResident
		agg.BytesFlatEquiv += st.BytesFlatEquiv
		agg.DataPagesMaterialized += st.DataPagesMaterialized
		agg.DataBytesResident += st.DataBytesResident
		agg.DataBytesMapped += st.DataBytesMapped
	}
	return agg
}

// Stats returns a snapshot of the accounting counters, including the
// per-shard breakdown.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	st := p.stats
	p.mu.Unlock()
	st.Capacity = p.cfg.MaxSessions
	st.SessionsReseeded = p.sessionsReseeded.Load()
	st.Shards = make([]ShardStats, len(p.shards))
	for i, sh := range p.shards {
		sh.mu.Lock()
		ss := sh.snapshotLocked()
		sh.mu.Unlock()
		st.Shards[i] = ss
		st.Leased += ss.Leased
		st.Idle += ss.Idle
		st.Waiters += ss.Waiters
		st.Created += ss.Created
		st.Reused += ss.Reused
		st.Rejected += ss.Shed
	}
	return st
}

// AssertDrained verifies the per-shard lease ledgers are balanced: no
// tokens held by leases or in-flight grants anywhere. The graceful-shutdown
// path calls it after the HTTP server has drained and the pool has closed —
// a nonzero ledger there means a lease escaped the drain.
func (p *Pool) AssertDrained() error {
	for i, sh := range p.shards {
		sh.mu.Lock()
		leased, free, cap := sh.leasedCt, sh.freeTokens, sh.capacity
		sh.mu.Unlock()
		if leased != 0 || free != cap {
			return fmt.Errorf("pool: shard %d drain imbalance: %d leases outstanding, %d/%d tokens free", i, leased, free, cap)
		}
	}
	return nil
}

// Quarantined returns the retained retirement history, oldest first.
func (p *Pool) Quarantined() []QuarantineRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]QuarantineRecord(nil), p.recent...)
}

// SessionInfo is one live session's introspection record, for /sessions.
type SessionInfo struct {
	Session    string `json:"session"`
	Scheme     string `json:"scheme"`
	Shard      int    `json:"shard"`
	State      string `json:"state"`
	Leases     uint64 `json:"leases"`
	Runs       uint64 `json:"runs"`
	Generation int    `json:"generation"`
	CreatedNS  int64  `json:"created_unix_nano"`
}

// Sessions lists every live session, leased and idle, ordered by id.
func (p *Pool) Sessions() []SessionInfo {
	var out []SessionInfo
	var ids []uint64
	for _, sh := range p.shards {
		sh.mu.Lock()
		for id, s := range sh.liveHere {
			state := "leased"
			for _, idleS := range sh.warmIdle[s.scheme] {
				if idleS == s {
					state = "idle"
					break
				}
			}
			out = append(out, SessionInfo{
				Session: s.Name(), Scheme: s.scheme.String(), Shard: sh.idx,
				State: state, Leases: s.leases, Runs: s.runs.Load(),
				Generation: int(s.gen.Load()), CreatedNS: s.created.UnixNano(),
			})
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	sort.Sort(&sessionsByID{ids: ids, infos: out})
	return out
}

// sessionsByID sorts SessionInfo records by their numeric session id.
type sessionsByID struct {
	ids   []uint64
	infos []SessionInfo
}

func (s *sessionsByID) Len() int           { return len(s.ids) }
func (s *sessionsByID) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *sessionsByID) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.infos[i], s.infos[j] = s.infos[j], s.infos[i]
}

// Close drains the pool: every shard is drained concurrently — idle
// sessions closed, queued waiters failed with ErrClosed — new Acquires fail
// with ErrClosed, and leased sessions are closed as they are released.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	var wg sync.WaitGroup
	for _, sh := range p.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.mu.Lock()
			sh.closed = true
			var toClose []*Session
			for scheme, list := range sh.warmIdle {
				toClose = append(toClose, list...)
				sh.warmIdle[scheme] = nil
			}
			for _, s := range toClose {
				delete(sh.liveHere, s.id)
			}
			parked := sh.waitq
			sh.waitq = nil
			p.waiting.Add(-int64(len(parked)))
			for _, w := range parked {
				w.ready <- grant{} // nil from: ErrClosed
			}
			sh.mu.Unlock()
			for _, s := range toClose {
				s.close()
			}
			p.mu.Lock()
			for _, s := range toClose {
				p.accumulateTagsLocked(s)
			}
			p.mu.Unlock()
		}(sh)
	}
	wg.Wait()
}
