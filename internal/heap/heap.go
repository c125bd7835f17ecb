// Package heap implements the Java-heap allocator of the simulated runtime.
//
// It plays the role of ART's RosAlloc in the paper: a thread-safe allocator
// carving objects out of one large mapping. Two properties the paper
// modifies in ART (§4.1) are first-class here:
//
//   - Alignment. ART's default is 8 bytes; MTE requires 16 so that no two
//     objects share a tag granule. The alignment is a constructor parameter
//     so the §4.1 hazard can be reproduced and measured (DESIGN.md Extra A).
//   - PROT_MTE. The heap mapping is created with tag storage when the
//     runtime enables MTE.
//
// The allocator is structured like a miniature RosAlloc (DESIGN.md
// "Fast-path engine"):
//
//   - Small requests (≤ maxTLABAlloc) are bump-allocated from per-thread
//     TLABs carved out of the central region, so the common path takes no
//     global lock and performs zero Go allocations (pinned by
//     TestAllocTLABHitAllocs).
//   - Recycled blocks live on size-class free lists sharded across
//     numShards locks; a free list hit is always preferred over fresh bump
//     space, and reuse is LIFO per class.
//   - Liveness is tracked in a chunked units table (one uint32 per
//     alignment unit, nonzero at each live block's start; chunks allocated
//     lazily as the bump cursor advances), giving lock-free SizeOf and
//     atomic double-free detection without a registry map on the
//     allocation path.
//   - Stats are plain atomics; the peak is maintained with a CAS-max.
//
// Observable semantics — zeroed blocks, LIFO same-class reuse, strict
// size-class separation, double-free and interior-pointer detection, the
// out-of-memory condition and its message, and the Stats meanings (BumpUsed
// counts fresh block bytes only, never TLAB carves) — are identical to the
// pre-TLAB allocator, and the tests pin them.
package heap

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"mte4jni/internal/mem"
	"mte4jni/internal/mte"
)

// Config describes a heap instance.
type Config struct {
	// Name labels the underlying mapping (e.g. "main space" or
	// "native alloc space").
	Name string
	// Size is the heap capacity in bytes.
	Size uint64
	// Alignment is the allocation alignment: 8 for stock ART, 16 for
	// MTE-consistent allocation (§4.1). Must be a power of two ≥ 8.
	Alignment uint64
	// MTE maps the heap with PROT_MTE, allocating tag storage.
	MTE bool
}

// DefaultSize is the heap capacity used when Config.Size is zero (64 MiB).
const DefaultSize = 64 << 20

// Stats is a snapshot of allocator counters.
type Stats struct {
	// Allocs and Frees count successful operations.
	Allocs, Frees uint64
	// BytesInUse is the sum of live allocation sizes (after rounding).
	BytesInUse uint64
	// BytesPeak is the high-water mark of BytesInUse.
	BytesPeak uint64
	// BumpUsed is the total of freshly bump-allocated block bytes — blocks
	// served from recycled free-list space do not advance it, and neither
	// does TLAB carving itself (a carve only stages capacity; the bytes
	// count when a block is actually handed out of it).
	BumpUsed uint64
}

// Heap is a thread-safe allocator over one simulated mapping.
type Heap struct {
	mapping *mem.Mapping
	align   uint64
	// shift is log2(align), used to convert between bytes and align units.
	shift uint

	// units is the liveness registry: one entry per alignment unit of the
	// mapping, holding the block size in units at each live block's start
	// and zero everywhere else. Entries are accessed atomically. (uint32
	// units cap a single block at 2^32-1 align units — far beyond any heap
	// this simulation configures.)
	//
	// The registry is a two-level table: a small eager array of chunk
	// pointers, with 64 KiB chunks allocated on demand as the bump cursor
	// advances (under carveMu). Sizing the table to the heap up front would
	// cost size/align × 4 bytes per heap — benchmarks and workloads that
	// build a runtime per iteration turned that into tens of megabytes of
	// allocation traffic per run. Chunks are never moved or freed once
	// published, so lock-free atomic element access stays sound.
	units []atomic.Pointer[unitChunk]

	// carveMu guards the central bump cursor. It is taken once per TLAB
	// refill or large allocation, not per small allocation.
	carveMu sync.Mutex
	cursor  mte.Addr

	// tlabs is the striped TLAB handle cache; see tlab.go.
	tlabs [tlabSlots]atomic.Pointer[tlab]

	// shards are the segregated free lists; see tlab.go.
	shards [numShards]freeShard

	// Counters behind Stats, all atomic so the allocation fast path never
	// serializes on a stats lock.
	allocs, frees, bytesInUse, bytesPeak, bumpUsed atomic.Uint64
	liveCount                                      atomic.Int64

	// closed is set by Close; Alloc and Free fail afterwards. The space
	// keeps a reference for the Unmap call, everything else is released.
	closed atomic.Bool
	space  *mem.Space

	// pushedShards has bit i set once a block has been pushed onto shard
	// i's free lists since the last Reset, so Reset visits only those.
	pushedShards atomic.Uint32
}

// New creates a heap inside space according to cfg.
func New(space *mem.Space, cfg Config) (*Heap, error) {
	if cfg.Size == 0 {
		cfg.Size = DefaultSize
	}
	if cfg.Alignment == 0 {
		cfg.Alignment = 8
	}
	if cfg.Alignment < 8 || cfg.Alignment&(cfg.Alignment-1) != 0 {
		return nil, fmt.Errorf("heap: invalid alignment %d", cfg.Alignment)
	}
	if cfg.Name == "" {
		cfg.Name = "main space"
	}
	prot := mem.ProtRead | mem.ProtWrite
	if cfg.MTE {
		prot |= mem.ProtMTE
	}
	m, err := space.Map(cfg.Name, cfg.Size, prot)
	if err != nil {
		return nil, err
	}
	h := &Heap{
		mapping: m,
		align:   cfg.Alignment,
		shift:   uint(bits.TrailingZeros64(cfg.Alignment)),
		cursor:  m.Base(),
		space:   space,
	}
	totalUnits := m.Size() >> h.shift
	h.units = make([]atomic.Pointer[unitChunk], (totalUnits+chunkUnits-1)>>unitChunkShift)
	for i := range h.shards {
		h.shards[i].free = make(map[uint64][]mte.Addr)
	}
	return h, nil
}

// ResetTags repaints the whole heap mapping back to tag 0 and bumps the
// space epoch — the reseed hook the serving pool uses when a session comes
// under brute-force suspicion. The caller must hold the heap quiescent (no
// live objects, no concurrent native access): the pool only reseeds
// sessions it exclusively owns after a GC-verified recycle.
func (h *Heap) ResetTags() {
	h.space.ResetTags(h.mapping)
}

// Mapping returns the heap's underlying mapping (for tag operations and raw
// access by the runtime).
func (h *Heap) Mapping() *mem.Mapping { return h.mapping }

// Alignment returns the allocation alignment in force.
func (h *Heap) Alignment() uint64 { return h.align }

// roundSize rounds a request up to the allocation alignment, with a minimum
// of one alignment unit so that zero-length arrays still get a distinct
// address.
func (h *Heap) roundSize(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	return (size + h.align - 1) &^ (h.align - 1)
}

// Close retires the heap: it unmaps the backing mapping from the space
// (releasing its data and tag storage) and drops the allocator's TLAB,
// free-list and liveness-registry state so a retained *Heap cannot pin the
// simulated memory. Alloc and Free fail afterwards. Close is idempotent and
// requires the same quiescence as mem.Space.Unmap: no concurrent users.
func (h *Heap) Close() error {
	if h.closed.Swap(true) {
		return nil
	}
	// Drop the TLAB handles and free lists first so no allocation path can
	// hand out an address after the mapping is gone.
	for i := range h.tlabs {
		h.tlabs[i].Store(nil)
	}
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		sh.free = make(map[uint64][]mte.Addr)
		sh.mu.Unlock()
	}
	for i := range h.units {
		h.units[i].Store(nil)
	}
	return h.space.Unmap(h.mapping)
}

// Closed reports whether Close has run.
func (h *Heap) Closed() bool { return h.closed.Load() }

// Reset returns a heap with no live block to its initial bump state: the
// cursor goes back to the mapping's base and every TLAB and free list
// empties, so the next allocations reuse the lowest addresses whatever sizes
// the earlier ones had. Without it the exact-size free lists keep every
// size a heap has ever served resident. A heap holding a live block is left
// untouched, and Reset reports whether it reset. The TLAB handles, free-list
// slices, registry chunks and data pages are kept (every registry entry is
// already zero and Alloc zeroes each block), so a reset allocates nothing,
// and it visits only the free-list shards pushed to since the last one.
// The Stats counters are cumulative and keep counting. Like Close it
// requires quiescence: no concurrent Alloc or Free.
func (h *Heap) Reset() bool {
	if h.closed.Load() || h.liveCount.Load() != 0 {
		return false
	}
	for i := range h.tlabs {
		if t := h.tlabs[i].Load(); t != nil {
			t.cur, t.end = 0, 0
		}
	}
	for pushed := h.pushedShards.Swap(0); pushed != 0; pushed &= pushed - 1 {
		sh := &h.shards[bits.TrailingZeros32(pushed)]
		sh.mu.Lock()
		for size, list := range sh.free {
			sh.free[size] = list[:0]
		}
		sh.mu.Unlock()
	}
	h.carveMu.Lock()
	h.cursor = h.mapping.Base()
	h.carveMu.Unlock()
	return true
}

// Alloc returns the zeroed, aligned base address of a fresh block of at
// least size bytes.
func (h *Heap) Alloc(size uint64) (mte.Addr, error) {
	if h.closed.Load() {
		return 0, fmt.Errorf("heap: Alloc on closed heap %q", h.mapping.Name())
	}
	rounded := h.roundSize(size)

	// Recycled space first: same-class LIFO reuse, checked before any bump
	// allocation so a freed block is deterministically handed back to the
	// next request of its class.
	addr, reused := h.popFree(rounded)
	if !reused {
		var ok bool
		if rounded <= maxTLABAlloc {
			addr, ok = h.allocFromTLAB(rounded)
		} else {
			addr, _, ok = h.carve(rounded, rounded)
		}
		if !ok {
			return 0, fmt.Errorf("heap: out of memory allocating %d bytes (in use %d of %d)",
				size, h.bytesInUse.Load(), h.mapping.Size())
		}
		h.bumpUsed.Add(rounded)
	}

	idx, _ := h.blockIndex(addr)
	h.setLive(idx, rounded)
	h.liveCount.Add(1)
	h.allocs.Add(1)
	inUse := h.bytesInUse.Add(rounded)
	for {
		peak := h.bytesPeak.Load()
		if inUse <= peak || h.bytesPeak.CompareAndSwap(peak, inUse) {
			break
		}
	}

	// Zero the block outside all locks; it is owned exclusively by the
	// caller from here on. Data pages no store has touched are already zero
	// and stay unmaterialized.
	if err := h.mapping.ZeroRaw(addr, int(rounded)); err != nil {
		return 0, err
	}
	return addr, nil
}

// Free recycles a block previously returned by Alloc. Freeing an unknown or
// already-freed address is an error (the runtime equivalent of heap
// corruption, surfaced instead of ignored).
func (h *Heap) Free(addr mte.Addr) error {
	if h.closed.Load() {
		return fmt.Errorf("heap: Free on closed heap %q", h.mapping.Name())
	}
	idx, ok := h.blockIndex(addr)
	if !ok {
		return fmt.Errorf("heap: free of unknown address %v", addr)
	}
	rounded := h.liveSize(idx)
	if rounded == 0 || !h.clearLive(idx, rounded) {
		// Not a live block start — an interior pointer, a never-allocated
		// address, or the losing side of a double free.
		return fmt.Errorf("heap: free of unknown address %v", addr)
	}
	h.pushFree(addr, rounded)
	h.liveCount.Add(-1)
	h.frees.Add(1)
	h.bytesInUse.Add(^(rounded - 1))
	return nil
}

// SizeOf returns the rounded size of the live allocation at addr.
func (h *Heap) SizeOf(addr mte.Addr) (uint64, bool) {
	idx, ok := h.blockIndex(addr)
	if !ok {
		return 0, false
	}
	size := h.liveSize(idx)
	return size, size != 0
}

// Live reports the number of live allocations.
func (h *Heap) Live() int {
	return int(h.liveCount.Load())
}

// ForEach calls fn for every live allocation. The walk scans the units
// registry up to the bump high-water mark; allocations racing with the walk
// may or may not be visited, exactly like the map-snapshot walk it replaced.
// The GC uses this as its allocation registry walk.
func (h *Heap) ForEach(fn func(addr mte.Addr, size uint64)) {
	h.carveMu.Lock()
	limit := uint64(h.cursor-h.mapping.Base()) >> h.shift
	h.carveMu.Unlock()
	base := h.mapping.Base()
	for i := uint64(0); i < limit; {
		if size := h.liveSize(i); size != 0 {
			fn(base+mte.Addr(i<<h.shift), size)
			i += size >> h.shift
		} else {
			i++
		}
	}
}

// Stats returns a snapshot of the allocator counters. Fields are read
// individually from atomics; a snapshot taken while other threads allocate
// is internally consistent per counter, not across counters.
func (h *Heap) Stats() Stats {
	return Stats{
		Allocs:     h.allocs.Load(),
		Frees:      h.frees.Load(),
		BytesInUse: h.bytesInUse.Load(),
		BytesPeak:  h.bytesPeak.Load(),
		BumpUsed:   h.bumpUsed.Load(),
	}
}
