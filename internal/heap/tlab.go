package heap

import (
	"sync"
	"sync/atomic"

	"mte4jni/internal/mte"
)

// This file holds the allocator's concurrency machinery: thread-local
// allocation buffers (TLABs) carved from the central bump region, the striped
// cache that hands TLABs to allocating goroutines, and the sharded
// size-class free lists. heap.go keeps the public API and the top-level
// Alloc/Free logic.

const (
	// tlabSize is how many bytes a TLAB carves from the central bump region
	// at a time. Large enough that the central carve lock is cold (one
	// acquisition per ~4K small objects at ART-typical sizes), small enough
	// that per-thread waste stays negligible against the heap.
	tlabSize = 64 << 10

	// maxTLABAlloc is the largest request served from a TLAB. Bigger blocks
	// go straight to the central bump region: carving them out of TLABs
	// would just churn the buffers.
	maxTLABAlloc = 4 << 10

	// tlabSlots is the size of the striped TLAB handle cache. Eight slots
	// comfortably cover the paper's 8-thread Figure 6 workload without two
	// allocators contending on one buffer.
	tlabSlots = 8

	// numShards is the free-list shard count. Size classes are distributed
	// across shards, so two threads freeing different classes never touch
	// the same lock. Must be a power of two.
	numShards = 16

	// unitChunkShift sizes the units-registry chunks: 2^14 entries = 64 KiB
	// per chunk, covering 256 KiB of heap at 16-byte alignment. Chunks are
	// allocated on demand as the bump cursor first reaches their range.
	unitChunkShift = 14
	chunkUnits     = 1 << unitChunkShift
)

// unitChunk is one lazily-allocated block of the units registry. Once a
// chunk pointer is published it never changes, so entries can be accessed
// with plain element atomics.
type unitChunk [chunkUnits]uint32

// tlab is one thread-local allocation buffer: a [cur, end) slice of the
// central bump region. A tlab is owned exclusively by whichever goroutine
// swapped it out of the handle cache, so its fields need no atomics.
type tlab struct {
	cur, end mte.Addr
}

// remaining returns the unallocated bytes left in the buffer.
func (t *tlab) remaining() uint64 { return uint64(t.end - t.cur) }

// freeShard is one stripe of the segregated free lists: a LIFO of recycled
// blocks per rounded size class. LIFO order is part of the allocator's
// observable behaviour (tests rely on free-then-alloc returning the same
// block) and is also the cache-friendly choice.
type freeShard struct {
	mu   sync.Mutex
	free map[uint64][]mte.Addr
}

// shardFor maps a rounded size class to its free-list shard. Consecutive
// classes land on different shards, so the common mix of small sizes spreads
// across locks.
func (h *Heap) shardFor(rounded uint64) *freeShard {
	return &h.shards[(rounded>>h.shift)&(numShards-1)]
}

// popFree takes the most recently freed block of the exact class, if any.
func (h *Heap) popFree(rounded uint64) (mte.Addr, bool) {
	sh := h.shardFor(rounded)
	sh.mu.Lock()
	list := sh.free[rounded]
	if n := len(list); n > 0 {
		addr := list[n-1]
		sh.free[rounded] = list[:n-1]
		sh.mu.Unlock()
		return addr, true
	}
	sh.mu.Unlock()
	return 0, false
}

// pushFree recycles a block onto its class's LIFO and marks the shard for
// the next Reset. The mark is a load of a word that stays set, so frees
// after the first add no write to it.
func (h *Heap) pushFree(addr mte.Addr, rounded uint64) {
	i := (rounded >> h.shift) & (numShards - 1)
	sh := &h.shards[i]
	sh.mu.Lock()
	sh.free[rounded] = append(sh.free[rounded], addr)
	sh.mu.Unlock()
	for bit := uint32(1) << i; ; {
		old := h.pushedShards.Load()
		if old&bit != 0 || h.pushedShards.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// takeTLAB claims a buffer from the striped handle cache, or nil when every
// slot is empty. Probing always starts at slot 0, so a single-threaded
// caller deterministically reuses the same buffer — concurrency spreads out
// only under actual contention.
func (h *Heap) takeTLAB() *tlab {
	for i := range h.tlabs {
		if t := h.tlabs[i].Swap(nil); t != nil {
			return t
		}
	}
	return nil
}

// putTLAB returns a buffer to the cache. When every slot is occupied (more
// live buffers than slots, only possible under heavy contention), the
// buffer's remainder is retired to the free lists so no memory is lost, and
// the handle is dropped.
func (h *Heap) putTLAB(t *tlab) {
	for i := range h.tlabs {
		if h.tlabs[i].CompareAndSwap(nil, t) {
			return
		}
	}
	h.retireTail(t)
}

// retireTail pushes a buffer's unallocated remainder onto the free list of
// its own size class, so refilling a TLAB never strands memory. The tail is
// one block; a future allocation of exactly that rounded size can reuse it.
func (h *Heap) retireTail(t *tlab) {
	if rem := t.remaining(); rem > 0 {
		h.pushFree(t.cur, rem)
		t.cur = t.end
	}
}

// carve advances the central bump cursor by want bytes, clamped down to at
// most the remaining capacity but never below min (the caller's immediate
// need). It returns ok=false — leaving the cursor alone — when even min does
// not fit. Clamping rather than failing lets the last partial TLAB use the
// heap's final bytes: the allocator wastes nothing at the capacity boundary
// (TestOutOfMemory fills a 4 KiB heap to the last byte through TLABs).
func (h *Heap) carve(min, want uint64) (mte.Addr, uint64, bool) {
	h.carveMu.Lock()
	remaining := h.mapping.Size() - uint64(h.cursor-h.mapping.Base())
	if remaining < min {
		h.carveMu.Unlock()
		return 0, 0, false
	}
	if want > remaining {
		want = remaining
	}
	addr := h.cursor
	h.cursor += mte.Addr(want)
	// Publish registry chunks covering the carved range before releasing the
	// lock: every block start handed out by the allocator lies inside some
	// carved range, so setLive/liveSize never see a missing chunk for a
	// legitimate address.
	first := uint64(addr-h.mapping.Base()) >> h.shift >> unitChunkShift
	last := (uint64(h.cursor-h.mapping.Base()-1) >> h.shift) >> unitChunkShift
	for c := first; c <= last; c++ {
		if h.units[c].Load() == nil {
			h.units[c].Store(new(unitChunk))
		}
	}
	h.carveMu.Unlock()
	return addr, want, true
}

// allocFromTLAB serves a small request from a thread-local buffer, refilling
// from the central region as needed. It returns ok=false only on true
// exhaustion (no buffer space and no central capacity).
func (h *Heap) allocFromTLAB(rounded uint64) (mte.Addr, bool) {
	t := h.takeTLAB()
	if t == nil {
		t = new(tlab)
	}
	if t.remaining() < rounded {
		// Refill: retire the remainder (it stays allocatable through the
		// free lists) and carve a fresh buffer.
		h.retireTail(t)
		base, got, ok := h.carve(rounded, tlabSize)
		if !ok {
			// Central region exhausted. The empty handle is still worth
			// caching; the next alloc may be served by the free lists.
			h.putTLAB(t)
			return 0, false
		}
		t.cur, t.end = base, base+mte.Addr(got)
	}
	addr := t.cur
	t.cur += mte.Addr(rounded)
	h.putTLAB(t)
	return addr, true
}

// blockIndex converts a block base address to its units-array index, or
// ok=false when addr cannot be a block start (outside the mapping or
// misaligned).
func (h *Heap) blockIndex(addr mte.Addr) (uint64, bool) {
	if addr < h.mapping.Base() || addr >= h.mapping.End() {
		return 0, false
	}
	off := uint64(addr - h.mapping.Base())
	if off&(h.align-1) != 0 {
		return 0, false
	}
	return off >> h.shift, true
}

// unitEntry resolves a units-registry index to its chunk entry, or nil when
// the covering chunk was never allocated — i.e. the bump cursor has not
// reached that part of the heap, so no block can start there.
func (h *Heap) unitEntry(idx uint64) *uint32 {
	c := h.units[idx>>unitChunkShift].Load()
	if c == nil {
		return nil
	}
	return &c[idx&(chunkUnits-1)]
}

// setLive publishes a block in the units registry. The entry at the block's
// start index holds its size in alignment units; interior indices stay zero.
// The chunk is guaranteed to exist: the block came out of a carved range.
func (h *Heap) setLive(idx, rounded uint64) {
	atomic.StoreUint32(h.unitEntry(idx), uint32(rounded>>h.shift))
}

// liveSize reads a block's rounded size from the registry; 0 means no live
// block starts at idx.
func (h *Heap) liveSize(idx uint64) uint64 {
	p := h.unitEntry(idx)
	if p == nil {
		return 0
	}
	return uint64(atomic.LoadUint32(p)) << h.shift
}

// clearLive atomically retires the block at idx, returning false if it was
// not live with that exact size — the loser of a double-free race sees
// false here and reports the corruption instead of corrupting the free
// lists.
func (h *Heap) clearLive(idx, rounded uint64) bool {
	p := h.unitEntry(idx)
	return p != nil && atomic.CompareAndSwapUint32(p, uint32(rounded>>h.shift), 0)
}
