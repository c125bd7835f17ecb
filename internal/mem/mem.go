// Package mem implements the simulated 64-bit address space that stands in
// for the device RAM of the paper's testbed.
//
// Memory is organised as mappings (the moral equivalent of mmap regions).
// A mapping created with ProtMTE carries one 4-bit allocation tag per
// 16-byte granule, mirroring how Linux exposes MTE: the paper's §4.1
// modifies ART to map the Java heap with PROT_MTE, and this package is where
// that flag takes effect.
//
// All native-code access to Java heap memory in this reproduction goes
// through the checked Load/Store/Copy entry points, which consult the
// accessing thread's cpu.Context exactly as the hardware consults
// SCTLR.TCF and PSTATE.TCO: checking happens only when the thread's mode is
// sync or async and TCO is clear. Tag mismatches either return a synchronous
// fault (sync mode) or are latched on the thread and the access proceeds
// (async mode).
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mte4jni/internal/mte"
)

// Prot is a mapping protection mask, following the PROT_* naming.
type Prot uint8

const (
	// ProtRead permits loads.
	ProtRead Prot = 1 << iota
	// ProtWrite permits stores.
	ProtWrite
	// ProtMTE allocates tag storage for the mapping and enables tag
	// checking on accesses to it, like PROT_MTE on Linux.
	ProtMTE
)

// String renders the mask in mmap style, e.g. "rw+mte".
func (p Prot) String() string {
	s := ""
	if p&ProtRead != 0 {
		s += "r"
	} else {
		s += "-"
	}
	if p&ProtWrite != 0 {
		s += "w"
	} else {
		s += "-"
	}
	if p&ProtMTE != 0 {
		s += "+mte"
	}
	return s
}

// pageSize is the simulated page granularity for mapping placement.
const pageSize = 4096

// guardGap is the unmapped slack left between consecutive mappings so that a
// wild out-of-bounds access past a mapping's end faults as SEGV_MAPERR
// instead of silently landing in a neighbour.
const guardGap = 1 << 20

// spaceBase is where the first mapping is placed. The value keeps simulated
// pointers looking like plausible AArch64 userspace addresses.
const spaceBase = mte.Addr(0x7000_0000_0000)

// Mapping is one contiguous region of simulated memory.
type Mapping struct {
	base  mte.Addr
	size  uint64
	prot  Prot
	name  string
	space *Space
	// pages is the mapping's paged data plane: one atomic page pointer per
	// 16 KiB, each on the shared zero page until the first store to it
	// materializes a private page (datapages.go). resident counts the
	// materialized pages, so Unmap unwinds the space's gauge in O(1).
	pages    []atomic.Pointer[dataPage]
	resident atomic.Int64
	// tagPages is the mapping's tag directory when the mapping is ProtMTE,
	// nil otherwise: one atomic page pointer per 16 KiB, indexed by the
	// same page number as pages, each on a canonical uniform page or a
	// materialized private one. Only tagtable.go names it; see that file
	// for the two-level layout and its concurrency rules.
	//
	// Tag bytes inside a page are plain bytes, not atomics, mirroring how
	// cheap hardware tag operations are relative to data accesses. This is
	// race-safe under the system's synchronization discipline: a granule's
	// tag is only written while its object's entry lock (package core) is
	// held with no other holder (refs 0->1 and 1->0 transitions), every
	// reader's acquire of the same entry lock establishes the
	// happens-before edge, and threads with checking disabled (TCO set)
	// never read tags at all. Directory entries are atomic pointers on top
	// of that discipline, so page materialization publishes only fully
	// built pages.
	tagPages []atomic.Pointer[tagPage]

	// Concurrent-scan synchronization. On hardware a GC thread reading a
	// word another thread is storing to is an ordinary (if unordered) pair
	// of accesses; in the simulator both touch the same Go data page and
	// would be a real data race. A VM that runs a concurrent collector
	// therefore flips scanSync (sticky, via EnableScanSync) and from then on
	// every checked store takes scanMu shared while the scanner brackets its
	// reads with the exclusive side. VMs without a concurrent scanner pay
	// only the scanSync load per store.
	scanSync atomic.Bool
	scanMu   sync.RWMutex
}

// EnableScanSync permanently switches the mapping into concurrent-scan mode:
// subsequent checked stores synchronize with LockScan/UnlockScan brackets.
// Called by the VM when a concurrent GC thread attaches. Stores already in
// flight are unaffected, so the caller must enable before the scanner starts
// and must not have mutators racing with the enablement itself (VM threads
// attach before they run).
func (m *Mapping) EnableScanSync() { m.scanSync.Store(true) }

// LockScan and UnlockScan bracket a concurrent scanner's reads of mapping
// data, excluding checked stores for the duration. Scanners hold the lock
// per scanned object, not per scan, so mutators are never stalled for more
// than a few word accesses.
func (m *Mapping) LockScan()   { m.scanMu.Lock() }
func (m *Mapping) UnlockScan() { m.scanMu.Unlock() }

// storeLock takes the store side of the scan lock when scan mode is on; it
// reports whether storeUnlock must be called.
func (m *Mapping) storeLock() bool {
	if !m.scanSync.Load() {
		return false
	}
	m.scanMu.RLock()
	return true
}

func (m *Mapping) storeUnlock(locked bool) {
	if locked {
		m.scanMu.RUnlock()
	}
}

// Base returns the first address of the mapping.
func (m *Mapping) Base() mte.Addr { return m.base }

// Size returns the mapping length in bytes.
func (m *Mapping) Size() uint64 { return m.size }

// End returns one past the last address of the mapping.
func (m *Mapping) End() mte.Addr { return m.base + mte.Addr(m.size) }

// Prot returns the mapping's protection mask.
func (m *Mapping) Prot() Prot { return m.prot }

// Name returns the human-readable label given at Map time.
func (m *Mapping) Name() string { return m.name }

// contains reports whether [addr, addr+size) lies fully inside the mapping.
func (m *Mapping) contains(addr mte.Addr, size int) bool {
	if addr < m.base {
		return false
	}
	off := uint64(addr - m.base)
	return off+uint64(size) <= m.size
}

// granuleIndex converts an in-mapping address to a tag-array index.
func (m *Mapping) granuleIndex(addr mte.Addr) int {
	return int(uint64(addr-m.base) >> mte.GranuleShift)
}

// TagAt returns the allocation tag of the granule containing addr. It
// reports tag 0 for untagged mappings, which matches hardware behaviour for
// non-PROT_MTE pages (they behave as tag-0 memory).
func (m *Mapping) TagAt(addr mte.Addr) mte.Tag {
	if !m.Tagged() {
		return 0
	}
	gi := m.granuleIndex(addr)
	return mte.Tag(m.tpage(gi >> tagPageShift)[gi&tagPageMask])
}

// SetTagRange applies tag to every granule overlapping [begin, end),
// simulating a loop of st2g instructions (Algorithm 1 step 3). It returns
// the number of granules written. Addresses outside the mapping are an
// error: tagging is a VM-internal operation, so this is a bug, not a
// recoverable fault.
//
// Tagging goes through the hierarchical tag table (tagtable.go): every tag
// page fully covered by the range becomes a single directory swap to the
// canonical uniform page of the tag — O(1) per 16 KiB regardless of span
// length, no byte traffic, and releasing any private page the entry held —
// while the partial edge pages are word-filled (eight granule tags per
// store, the software analogue of the st2g/dc gva fill loops MTE-aware
// allocators use), materializing copy-on-tag if still canonical. Tag
// application sits on the Acquire and Release hot paths of every Fig5/Fig6
// iteration, so the edge fill stays byte-loop-free; it replaces PR 2's
// doubling-copy fill, which touched every tag byte of large spans.
func (m *Mapping) SetTagRange(begin, end mte.Addr, tag mte.Tag) (int, error) {
	if !m.Tagged() {
		return 0, fmt.Errorf("mem: SetTagRange on non-MTE mapping %q", m.name)
	}
	gb, ge := mte.GranuleRange(begin, end)
	if gb < m.base || ge > m.End() {
		return 0, fmt.Errorf("mem: SetTagRange [%v,%v) outside mapping %q [%v,%v)", begin, end, m.name, m.base, m.End())
	}
	lo, hi := m.granuleIndex(gb), m.granuleIndex(ge)
	m.setTags(lo, hi, uint8(tag&0xF))
	return hi - lo, nil
}

// ZeroTagRange clears the tags of every granule overlapping [begin, end),
// used by tag release (Algorithm 2 step 3).
func (m *Mapping) ZeroTagRange(begin, end mte.Addr) (int, error) {
	return m.SetTagRange(begin, end, 0)
}

// ReadRaw copies mapping bytes starting at addr into dst without any tag or
// protection checking. It is the runtime-internal view of memory (the
// allocator, the GC and the guarded-copy machinery use it) — the moral
// equivalent of ART touching its own heap from managed code paths. The raw
// helpers (ReadRaw, WriteRaw, ZeroRaw, CopyRaw, VisitRaw) are the only way
// around the checked accessors; none of them hands out a view of the
// backing pages that outlives the call.
func (m *Mapping) ReadRaw(addr mte.Addr, dst []byte) error {
	if !m.contains(addr, len(dst)) {
		return fmt.Errorf("mem: ReadRaw [%v,+%d) outside mapping %q", addr, len(dst), m.name)
	}
	m.readAt(uint64(addr-m.base), dst)
	return nil
}

// WriteRaw copies src into the mapping at addr without checking.
func (m *Mapping) WriteRaw(addr mte.Addr, src []byte) error {
	if !m.contains(addr, len(src)) {
		return fmt.Errorf("mem: WriteRaw [%v,+%d) outside mapping %q", addr, len(src), m.name)
	}
	locked := m.storeLock()
	m.writeAt(uint64(addr-m.base), src)
	m.storeUnlock(locked)
	return nil
}

// ZeroRaw clears [addr, addr+n) without checking — the allocator's block
// zeroing. Pages no store has touched are already zero and are skipped, so
// zeroing fresh memory materializes nothing.
func (m *Mapping) ZeroRaw(addr mte.Addr, n int) error {
	if !m.contains(addr, n) {
		return fmt.Errorf("mem: ZeroRaw [%v,+%d) outside mapping %q", addr, n, m.name)
	}
	locked := m.storeLock()
	m.zeroAt(uint64(addr-m.base), uint64(n))
	m.storeUnlock(locked)
	return nil
}

// CopyRaw copies n bytes from src at srcAddr into m at addr without
// checking, page by page on both sides. Within one mapping, overlapping
// ranges behave like memmove.
func (m *Mapping) CopyRaw(addr mte.Addr, src *Mapping, srcAddr mte.Addr, n int) error {
	if !m.contains(addr, n) || !src.contains(srcAddr, n) {
		return fmt.Errorf("mem: CopyRaw [%v,+%d) from %q to [%v,+%d) in %q out of range", srcAddr, n, src.name, addr, n, m.name)
	}
	locked := m.storeLock()
	moveAt(m, uint64(addr-m.base), src, uint64(srcAddr-src.base), uint64(n))
	m.storeUnlock(locked)
	return nil
}

// VisitRaw calls fn on consecutive windows of the bytes at [addr, addr+n),
// in address order, without checking — for scans such as checksums that
// should not copy. Untouched pages are presented as the shared zero page,
// so fn must only read a window and must not keep it after returning.
func (m *Mapping) VisitRaw(addr mte.Addr, n int, fn func(window []byte)) error {
	if !m.contains(addr, n) {
		return fmt.Errorf("mem: VisitRaw [%v,+%d) outside mapping %q", addr, n, m.name)
	}
	m.visitAt(uint64(addr-m.base), uint64(n), fn)
	return nil
}

// Space is a simulated process address space: an ordered set of mappings.
// Mapping creation is rare and locked; address resolution on the access hot
// path goes through each thread's TLB (cpu.TLB) and, on a miss, a binary
// search over an immutable sorted snapshot, so concurrent native threads
// never serialize on the Space itself.
//
// # Epoch / TLB invalidation contract
//
// Per-thread TLBs cache (base, end, *Mapping) triples from the snapshot.
// Map and Unmap publish the new snapshot first and only then bump the epoch
// counter; the access fast path loads the epoch before probing the TLB and
// flushes it on any change. After a Map a stale TLB entry can only cause a
// miss (which re-reads the snapshot), never a wrong hit. After an Unmap a
// stale entry could hit the removed mapping, so Unmap requires quiescence
// (see Unmap). TestTLBInvalidationStress exercises the Map side under the
// race detector.
type Space struct {
	mu       sync.Mutex
	nextBase mte.Addr
	snapshot atomic.Pointer[[]*Mapping]
	// epoch counts snapshot changes (Map, Unmap) and tag reseeds
	// (ResetTags); bumped after the snapshot is published.
	epoch atomic.Uint64

	// Paged data-plane accounting (datapages.go): pages materialized by a
	// first store (monotonic), and the gauges over live mappings.
	dataMaterialized  atomic.Uint64
	dataResidentPages atomic.Int64
	dataDirBytes      atomic.Int64
	dataMappedBytes   atomic.Int64

	// Hierarchical tag-storage accounting (tagtable.go), surfaced by
	// TagStats.
	tagMaterialized  atomic.Uint64
	tagUniform       atomic.Uint64
	tagZeroDedup     atomic.Uint64
	tagResidentPages atomic.Int64
	tagDirBytes      atomic.Int64
	tagFlatBytes     atomic.Int64
}

// NewSpace creates an empty address space.
func NewSpace() *Space {
	s := &Space{nextBase: spaceBase}
	empty := []*Mapping{}
	s.snapshot.Store(&empty)
	return s
}

// Epoch returns the current mapping epoch. It changes when Map or Unmap
// publishes a new snapshot and when ResetTags reseeds a mapping; TLBs
// stamped with an older epoch must flush.
func (s *Space) Epoch() uint64 { return s.epoch.Load() }

// Map creates a new mapping of size bytes (rounded up to the page size) with
// the given protection and returns it. Placement is linear with a guard gap
// after each mapping, so the snapshot stays sorted by base address — the
// property the Resolve binary search depends on.
func (s *Space) Map(name string, size uint64, prot Prot) (*Mapping, error) {
	if size == 0 {
		return nil, fmt.Errorf("mem: Map %q: zero size", name)
	}
	rounded := (size + pageSize - 1) &^ (pageSize - 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	npages := int((rounded + dataPageSize - 1) >> dataPageShift)
	m := &Mapping{
		base:  s.nextBase,
		size:  rounded,
		prot:  prot,
		name:  name,
		space: s,
		// Paged data plane: the directory is the only allocation, and every
		// entry starts on the shared zero page.
		pages: newDir(npages, zeroPage),
	}
	s.dataMappedBytes.Add(int64(rounded))
	s.dataDirBytes.Add(int64(npages) * dataDirEntryBytes)
	if prot&ProtMTE != 0 {
		// Hierarchical tag storage: a directory of the same length, every
		// entry on the canonical zero page (tagtable.go).
		m.mapTags()
	}
	s.nextBase += mte.Addr(rounded + guardGap)

	old := *s.snapshot.Load()
	next := make([]*Mapping, len(old)+1)
	copy(next, old)
	next[len(old)] = m
	// Publish the snapshot BEFORE bumping the epoch: a thread that observes
	// the new epoch and flushes its TLB must find the new mapping when its
	// miss path re-reads the snapshot.
	s.snapshot.Store(&next)
	s.epoch.Add(1)
	return m, nil
}

// Unmap removes m from the space and releases its backing storage (data
// bytes and tag storage), the simulated munmap. Subsequent resolution of any
// address inside the old range reports unmapped (SEGV_MAPERR on access), and
// raw access through a retained *Mapping handle fails its bounds check
// because the released mapping has zero length.
//
// Like Map, publication order is snapshot first, epoch second. Unlike Map a
// stale TLB entry here could be a *wrong hit*, not just a miss, so Unmap
// requires quiescence: no thread may be concurrently accessing the mapping
// when it is unmapped. The VM teardown path (heap.Close via vm.Close) is the
// only caller and owns that guarantee — a pooled VM is closed only while
// exclusively leased.
func (s *Space) Unmap(m *Mapping) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.snapshot.Load()
	next := make([]*Mapping, 0, len(old))
	found := false
	for _, cur := range old {
		if cur == m {
			found = true
			continue
		}
		next = append(next, cur)
	}
	if !found {
		return fmt.Errorf("mem: Unmap of unknown mapping %q", m.name)
	}
	s.snapshot.Store(&next)
	s.epoch.Add(1)
	// Release the backing storage. contains() now fails for every access, so
	// retained handles degrade to errors rather than touching freed state.
	// Data and tag pages become garbage (no freelist, see datapages.go).
	m.releaseTags()
	m.releasePages()
	m.size = 0
	return nil
}

// ResetTags repaints every granule of m back to tag 0 and bumps the space
// epoch — the tag-reseed primitive. Painting zero collapses the mapping's
// materialized tag pages back onto the canonical zero page, so an
// attacker's learned tags go stale wholesale; the epoch bump flushes
// per-thread TLBs and, more to the point, invalidates any elision mask
// primed against the pre-reseed epoch (jni.Env.ArmElision refuses a stale
// prime). Like retagging in general the caller must hold the mapping
// quiescent: the pool reseeds only sessions it exclusively owns, between
// leases.
func (s *Space) ResetTags(m *Mapping) {
	if m.Tagged() {
		m.setTags(0, int(m.size>>mte.GranuleShift), 0)
	}
	// Snapshot is unchanged, so a flushed TLB re-resolves identical mapping
	// state; the bump exists to invalidate primed elision bindings.
	s.epoch.Add(1)
}

// Resolve finds the mapping containing addr by binary search over the
// sorted snapshot. The second result is false when addr is unmapped.
func (s *Space) Resolve(addr mte.Addr) (*Mapping, bool) {
	snap := *s.snapshot.Load()
	lo, hi := 0, len(snap)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if snap[mid].base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first mapping with base > addr; the candidate is its left
	// neighbour.
	if lo > 0 {
		if m := snap[lo-1]; addr < m.End() {
			return m, true
		}
	}
	return nil, false
}

// Mappings returns a snapshot of all current mappings in creation order.
func (s *Space) Mappings() []*Mapping {
	snap := *s.snapshot.Load()
	out := make([]*Mapping, len(snap))
	copy(out, snap)
	return out
}
