package cpu

// This file implements the per-thread mapping-translation cache (the "TLB")
// consulted by the package mem access fast path. Resolving which mapping an
// address belongs to used to be a linear scan over the space's mapping list
// on every single checked access; with the TLB the common case is a couple
// of compares against recently used entries, exactly as a hardware TLB turns
// a page-table walk into a CAM hit.
//
// # Invalidation contract
//
// The TLB caches (base, end, mapping) triples copied from a mem.Space
// snapshot. The contract between the two packages, relied on by the
// TestTLBInvalidationStress race test in package mem:
//
//  1. A TLB is owned by the single goroutine driving its Context. No other
//     goroutine may touch it, so hits take no locks and no atomics.
//  2. mem.Space.Map and Unmap publish the new mapping snapshot *before*
//     bumping the space's epoch counter (both atomic). The mem fast path
//     reads the epoch first and flushes the TLB whenever it differs from
//     TLB.Epoch, then — on a miss — consults the snapshot. A thread that
//     observes the new epoch therefore always re-resolves against a snapshot
//     at least as new.
//  3. Mappings never move. After a Map a stale TLB can only miss, never hit
//     wrongly — a miss falls through to the snapshot, which Map updates
//     atomically. After an Unmap a stale entry could still hit the removed
//     mapping until the thread's next epoch check, so mem.Space.Unmap
//     requires quiescence: no thread may access the mapping while it is
//     unmapped.
//
// Entries are fully associative with round-robin replacement: TLBSize is
// small enough that probing every entry is cheaper than any bookkeeping.

// TLBSize is the number of cached translations per thread. The JNI access
// patterns of the paper touch at most a handful of mappings per native call
// (Java heap, native heap, and the occasional extra space), so four entries
// capture essentially all locality.
const TLBSize = 4

// TLBEntry caches one mapping's address range. Ref holds the *mem.Mapping;
// it is typed as any because package cpu sits below package mem in the
// dependency order.
type TLBEntry struct {
	// Base and End delimit the mapping's [Base, End) address range. End==0
	// marks an empty entry (no mapping starts at address 0).
	Base, End uint64
	// Ref is the *mem.Mapping this entry translates to.
	Ref any
}

// TLB is a per-thread translation cache. The zero value is an empty TLB,
// valid for epoch 0.
type TLB struct {
	// Epoch is the mem.Space epoch the entries were filled under. The mem
	// fast path flushes the TLB when the space's epoch has moved on.
	Epoch uint64
	// Entries are the cached translations, probed in order.
	Entries [TLBSize]TLBEntry
	// next is the round-robin replacement cursor.
	next int

	// hits and misses instrument the cache for tests and tuning; they are
	// owned by the driving goroutine like everything else here.
	hits, misses uint64
}

// Lookup returns the cached entry for the mapping containing
// [addr, addr+size), or nil on a miss. A hit guarantees containment of the
// whole access, so callers need no further bounds check, and the returned
// entry stays valid until the next Insert or Flush — callers read Ref
// immediately, they do not retain the pointer. addr itself must lie strictly
// inside the mapping (addr < End) even for size 0, mirroring how resolving
// the one-past-the-end address of a mapping faults on hardware.
//
//mte4jni:fastpath
func (t *TLB) Lookup(addr uint64, size int) *TLBEntry {
	for i := range t.Entries {
		e := &t.Entries[i]
		if addr >= e.Base && addr < e.End && addr+uint64(size) <= e.End {
			t.hits++
			return e
		}
	}
	t.misses++
	return nil
}

// Insert caches a translation, evicting round-robin.
//
//mte4jni:fastpath
func (t *TLB) Insert(base, end uint64, ref any) {
	t.Entries[t.next] = TLBEntry{Base: base, End: end, Ref: ref}
	t.next++
	if t.next == TLBSize {
		t.next = 0
	}
}

// Flush empties the TLB and stamps it with the given epoch.
//
//mte4jni:fastpath
func (t *TLB) Flush(epoch uint64) {
	*t = TLB{Epoch: epoch, hits: t.hits, misses: t.misses}
}

// Stats reports the hit and miss counts since the Context was created.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }
