package pool

import (
	"sync"

	"mte4jni"
)

// shard is one admission domain of the pool: its own capacity tokens, warm
// free lists, live-session ledger and bounded waiter queue, all guarded by
// a shard-local mutex so admission on one shard never serializes against
// another. Requests are routed to a home shard by the {tenant, scheme}
// affinity hash (Pool.HomeShard), which is what keeps warm-session reuse —
// and with it primed elision state and per-session tag streams — intact
// across the shard split: the same tenant/scheme pair always lands on the
// same free lists.
//
// Cross-shard work stealing keeps the split work-conserving when the hash
// skews. It runs in both directions:
//
//   - overflow at acquire: an Acquire that finds its home shard saturated
//     takes a free token from any other shard before it queues;
//   - waiter stealing at release: a shard whose token frees with nobody
//     queued locally offers that token to the oldest waiter queued on any
//     other shard (offerToken), so a queued Acquire never starves behind an
//     idle shard.
//
// Both directions account the lease to the shard that supplied the token
// (shard_leases_total) and count the foreign service in shard_steals_total.
type shard struct {
	p   *Pool
	idx int

	mu sync.Mutex
	// freeTokens is the shard's slice of the capacity semaphore: one token
	// per live-or-creatable session this shard may lease out.
	freeTokens int
	// capacity is the shard's share of Config.MaxSessions, fixed at New.
	capacity int
	// warmIdle parks recycled sessions per scheme for warm reuse.
	warmIdle map[mte4jni.Scheme][]*Session
	// liveHere is every non-closed session whose token belongs to this
	// shard, idle or leased.
	liveHere map[uint64]*Session
	// waitq is the bounded FIFO of parked Acquires waiting for a token
	// grant. A waiter is granted at most once: whoever pops it sends the
	// grant while still holding this mutex, so "absent from waitq" implies
	// "grant already buffered on waiter.ready".
	waitq    []*waiter
	leasedCt int
	closed   bool

	// Counters surfaced per shard in /metrics (ShardStats).
	leases  uint64 // shard_leases_total: leases served from this shard's tokens
	steals  uint64 // shard_steals_total: of those, leases serving another shard's traffic
	shed    uint64 // shard_shed_total: admissions refused 503 at this shard's queue
	created uint64 // VM constructions on this shard
	reused  uint64 // leases served warm from this shard's free lists
}

// waiter is one parked Acquire.
type waiter struct {
	scheme mte4jni.Scheme
	ready  chan grant // buffered 1; receives exactly one grant ever
}

// grant hands a waiter one reserved capacity token on the shard from. A
// zero grant (nil from) reports pool closure.
type grant struct{ from *shard }

// ShardStats is one shard's point-in-time accounting, surfaced through
// Stats.Shards and /metrics.
type ShardStats struct {
	Shard    int    `json:"shard"`
	Capacity int    `json:"capacity"`
	Leased   int    `json:"leased"`
	Idle     int    `json:"idle"`
	Waiters  int    `json:"waiters"`
	Leases   uint64 `json:"shard_leases_total"`
	Steals   uint64 `json:"shard_steals_total"`
	Shed     uint64 `json:"shard_shed_total"`
	Created  uint64 `json:"created"`
	Reused   uint64 `json:"reused"`
}

// tryTakeToken claims one free token, accounting the nascent lease.
func (sh *shard) tryTakeToken() bool {
	sh.mu.Lock()
	if sh.closed || sh.freeTokens == 0 {
		sh.mu.Unlock()
		return false
	}
	sh.freeTokens--
	sh.leasedCt++
	sh.mu.Unlock()
	return true
}

// popWaiterLocked dequeues the oldest waiter. Caller holds sh.mu and must
// send the grant before releasing it (that lock-held send is what makes
// waiter cancellation race-free: a waiter that finds itself missing from
// the queue knows its grant is already buffered).
func (sh *shard) popWaiterLocked() *waiter {
	w := sh.waitq[0]
	copy(sh.waitq, sh.waitq[1:])
	sh.waitq[len(sh.waitq)-1] = nil
	sh.waitq = sh.waitq[:len(sh.waitq)-1]
	sh.p.waiting.Add(-1)
	return w
}

// removeWaiter takes w out of the queue if it is still there. A false
// return means w was already granted — the grant is sitting in w.ready and
// the canceling Acquire must give it back via returnToken.
func (sh *shard) removeWaiter(w *waiter) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, q := range sh.waitq {
		if q == w {
			sh.waitq = append(sh.waitq[:i], sh.waitq[i+1:]...)
			sh.p.waiting.Add(-1)
			return true
		}
	}
	return false
}

// enqueueWaiter joins home's bounded wait queue, applying the per-shard
// shed decision with the pool-wide backstop: the queue sheds when its own
// slice of MaxWaiters is full, or when the whole pool has MaxWaiters
// Acquires parked regardless of how they are spread.
func (p *Pool) enqueueWaiter(home *shard, scheme mte4jni.Scheme) (*waiter, error) {
	home.mu.Lock()
	if home.closed {
		home.mu.Unlock()
		return nil, ErrClosed
	}
	if len(home.waitq) >= p.perShardWaiters || int(p.waiting.Load()) >= p.cfg.MaxWaiters {
		home.shed++
		home.mu.Unlock()
		return nil, ErrOverloaded
	}
	w := &waiter{scheme: scheme, ready: make(chan grant, 1)}
	home.waitq = append(home.waitq, w)
	p.waiting.Add(1)
	home.mu.Unlock()
	return w, nil
}

// returnToken frees one reserved token on sh. The token is handed to the
// oldest local waiter when one is queued — the lease ledger stays balanced
// because one lease ends as the next begins on the same token — and
// otherwise freed and offered to other shards' waiters.
func (p *Pool) returnToken(sh *shard) {
	sh.mu.Lock()
	sh.leasedCt--
	if !sh.closed && len(sh.waitq) > 0 {
		w := sh.popWaiterLocked()
		sh.leasedCt++
		w.ready <- grant{from: sh}
		sh.mu.Unlock()
		return
	}
	sh.freeTokens++
	sh.mu.Unlock()
	p.offerToken(sh)
}

// offerToken is the stealing half of returnToken: while sh holds a free
// token and some shard has a queued waiter, reserve the token and grant it.
// Two shard mutexes are never held at once; instead the put-back path
// re-checks for waiters that enqueued mid-scan and loops, which closes the
// lost-wakeup race against enqueueWaiter (whose own post-enqueue token scan
// covers the complementary window).
func (p *Pool) offerToken(sh *shard) {
	// No waiters anywhere: skip the sweep. This read is what keeps a
	// waiter-free release O(1) instead of O(shards). It cannot miss a
	// waiter that matters: enqueueWaiter publishes p.waiting before the
	// waiter's own post-enqueue token scan, and returnToken frees the token
	// before this load, so one of the two sides always sees the other
	// (both orderings cannot lose simultaneously — that interleaving is
	// cyclic).
	if len(p.shards) == 1 || p.waiting.Load() == 0 {
		return
	}
	for {
		sh.mu.Lock()
		if sh.closed || sh.freeTokens == 0 {
			sh.mu.Unlock()
			return
		}
		sh.freeTokens--
		sh.leasedCt++
		sh.mu.Unlock()

		for i := 1; i < len(p.shards); i++ {
			other := p.shards[(sh.idx+i)%len(p.shards)]
			other.mu.Lock()
			if len(other.waitq) > 0 {
				w := other.popWaiterLocked()
				w.ready <- grant{from: sh}
				other.mu.Unlock()
				return
			}
			other.mu.Unlock()
		}

		// Nobody to help: put the token back — or hand it straight to a
		// local waiter that queued while the token was reserved.
		sh.mu.Lock()
		if !sh.closed && len(sh.waitq) > 0 {
			w := sh.popWaiterLocked()
			w.ready <- grant{from: sh}
			sh.mu.Unlock()
			return
		}
		sh.freeTokens++
		sh.leasedCt--
		sh.mu.Unlock()
		if !p.anyQueuedWaiters() {
			return
		}
	}
}

// anyQueuedWaiters reports whether any shard has a parked Acquire.
func (p *Pool) anyQueuedWaiters() bool {
	return p.waiting.Load() > 0
}

// leaseOn completes a lease on sh for a caller holding one reserved token
// there (leasedCt already counted): pop a warm session of the right scheme,
// or build a fresh one. stolen marks leases whose home shard is not sh, for
// shard_steals_total.
func (p *Pool) leaseOn(sh *shard, scheme mte4jni.Scheme, stolen bool) (*Session, error) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		p.returnToken(sh)
		return nil, ErrClosed
	}
	if list := sh.warmIdle[scheme]; len(list) > 0 {
		s := list[len(list)-1]
		list[len(list)-1] = nil
		sh.warmIdle[scheme] = list[:len(list)-1]
		s.leases++
		sh.reused++
		sh.leases++
		if stolen {
			sh.steals++
		}
		epoch := p.reseedEpoch.Load()
		needReseed := s.seedEpoch != epoch
		if needReseed {
			p.sessionsReseeded.Add(1)
		}
		sh.mu.Unlock()
		if needReseed {
			// Tag-reseed-on-suspicion: the session was parked before the
			// last tier crossing, so whatever tags an attacker learned from
			// it are about to go stale. The lease is exclusively ours here —
			// reseed outside the shard lock.
			s.reseed(p.cfg.Seed, epoch)
		}
		s.beginLease()
		return s, nil
	}
	sh.mu.Unlock()

	id := p.nextID.Add(1)
	s, err := p.newSession(id, scheme, p.cfg.Seed+int64(id))
	if err != nil {
		p.returnToken(sh)
		return nil, err
	}
	s.home = sh
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		s.close()
		p.mu.Lock()
		p.accumulateTagsLocked(s)
		p.mu.Unlock()
		p.returnToken(sh)
		return nil, ErrClosed
	}
	sh.liveHere[id] = s
	sh.created++
	sh.leases++
	if stolen {
		sh.steals++
	}
	s.leases++
	// A fresh session's tags are brand new: it is born at the current
	// reseed epoch.
	s.seedEpoch = p.reseedEpoch.Load()
	sh.mu.Unlock()
	s.beginLease()
	return s, nil
}

// snapshotLocked is sh's contribution to Stats. Caller holds sh.mu.
func (sh *shard) snapshotLocked() ShardStats {
	idle := 0
	for _, list := range sh.warmIdle {
		idle += len(list)
	}
	return ShardStats{
		Shard:    sh.idx,
		Capacity: sh.capacity,
		Leased:   sh.leasedCt,
		Idle:     idle,
		Waiters:  len(sh.waitq),
		Leases:   sh.leases,
		Steals:   sh.steals,
		Shed:     sh.shed,
		Created:  sh.created,
		Reused:   sh.reused,
	}
}

// AffinityKey is the shard router's routing hash: FNV-1a over tenant, a
// separator, and the scheme name, so a tenant's requests under one scheme
// land on the same shard's warm state. `mte4jni load -tenants` probes it to
// pick tenants that spread evenly over the shards.
func AffinityKey(tenant, scheme string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= prime64
	}
	h ^= 0xff
	h *= prime64
	for i := 0; i < len(scheme); i++ {
		h ^= uint64(scheme[i])
		h *= prime64
	}
	return h
}

// HomeShard resolves the affinity hash to a shard index.
func (p *Pool) HomeShard(tenant string, scheme mte4jni.Scheme) int {
	return int(AffinityKey(tenant, scheme.String()) % uint64(len(p.shards)))
}
