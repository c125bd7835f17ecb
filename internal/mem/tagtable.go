package mem

import (
	"encoding/binary"
	"sync/atomic"
)

// Hierarchical two-level tag storage (DESIGN.md "Hierarchical tag storage").
//
// The flat one-byte-per-granule tag array of PR 2 made per-VM tag footprint
// proportional to mapped size: a 32 MiB pool session paid 2 MiB of tag bytes
// whether it touched one object or a million. Following Partap & Boneh's
// "Memory Tagging: A Memory Efficient Design" (PAPERS.md), tag storage is now
// a two-level table: a root directory with one entry per tag page — a tag
// page covers tagPageGranules granules of data (16 KiB, see the constant's
// doc for the width trade-off) — where each entry points at either
//
//   - a canonical uniform page (&uniformPages[t]): the whole page carries tag
//     t with no per-space backing storage. uniformPages[0] doubles as the
//     shared zero-tag page every fresh mapping starts out deduplicated
//     against, and SetTagRange installs uniform pages for every tag-page it
//     fully covers — the common post-retag state — in O(1) per page;
//   - a materialized private page: tagPageBytes bytes owned by this mapping,
//     copy-on-tag allocated the first time a SetTagRange paints only part of
//     a page (the only way a page becomes heterogeneous).
//
// The access fast path is unchanged in shape: one directory load resolves the
// page, then the same single-byte compare (intra-granule accesses) or SWAR
// word sweep (spans) as before runs over the page's bytes — canonical and
// private pages are both plain byte arrays, so the compare code cannot tell
// them apart and does not need to. Spans get one new fast-out: a page whose
// directory entry *is* the canonical page of the wanted tag matches without
// reading a single tag byte.
//
// # Concurrency
//
// Directory entries are atomic pointers. Readers do one atomic load (plain
// load + acquire on real hardware — free on the architectures we simulate);
// a materializing writer builds the complete private page off to the side
// and publishes it with a CompareAndSwap, so a concurrent reader observes
// either the old canonical page or the fully built private page, never a
// half-copied one. In-place tag writes on an already-private page touch only
// the granules of the range being retagged, which the object entry-lock
// discipline documented on Mapping.tags already serializes against readers
// of those same granules — exactly the contract the flat array relied on.
// Full-page retags (atomic Swap to a canonical page) only race with partial
// retags of the same page if two SetTagRange calls overlap, which the same
// discipline forbids.
//
// Displaced and released private pages go to a per-Space freelist so steady
// state allocation churn is zero (Unmap/heap.Close return pages; the next
// materialization reuses them).
//
// The directory itself is lazy too: a fresh mapping's tagTable carries a nil
// directory pointer, which every reader treats as "canonical zero page
// everywhere" — the exact state an eagerly allocated directory would start
// in. The first tag touch that needs real storage (a non-zero retag or a
// partial-page paint) CAS-publishes the one-and-only directory; tag-0 paints
// of a virgin mapping short-circuit without allocating. Mapped-but-untagged
// address space therefore pays zero tag footprint, directory included.
//
// # TLB interaction
//
// The per-thread TLB caches the resolved *tagTable next to the mapping (one
// pointer, invalidated by the existing Space epoch exactly like the mapping
// pointer — the directory is immutable for a mapping's lifetime). Individual
// tag-page pointers are deliberately NOT cached in the TLB: SetTagRange swaps
// directory entries without an epoch bump, so a cached page pointer could go
// stale mid-lease; the directory load per access is the price of coherence.

const (
	// tagPageGranules is the number of granules one tag page covers. At 16
	// bytes per granule a tag page spans tagPageGranules*16 = 16 KiB of
	// data (four 4 KiB mapping pages). The width is a latency/footprint
	// trade: wider pages shrink the directory 4x and let one atomic swap
	// retag 16 KiB (keeping SetTagRange at parity with the flat array's
	// word fill at the bench's n=16384 point), while a materialized page
	// still costs only 1 KiB. Mappings are 4 KiB-rounded, not 16 KiB-
	// rounded, so a mapping's last tag page may extend past its end; the
	// out-of-range slots are simply never addressed.
	tagPageGranules = 1024
	// tagPageShift and tagPageMask split a granule index into (page index,
	// in-page index).
	tagPageShift = 10
	tagPageMask  = tagPageGranules - 1
	// tagPageBytes is the backing cost of one materialized page (one tag
	// byte per granule).
	tagPageBytes = tagPageGranules
	// tagDirEntryBytes is the accounting cost of one directory entry.
	tagDirEntryBytes = 8
)

// tagPage holds the tags of one page's worth of granules.
type tagPage [tagPageGranules]uint8

// uniformPages are the 16 canonical uniform pages, one per tag value: page t
// holds tag t in every slot. They are shared by every Space and never
// written after init; a directory entry pointing at one is the inline
// "whole page is tag t" sentinel with no per-mapping storage behind it.
var uniformPages [16]tagPage

func init() {
	for t := range uniformPages {
		for i := range uniformPages[t] {
			uniformPages[t][i] = uint8(t)
		}
	}
}

// canonical returns the shared uniform page for tag b.
//
//mte4jni:fastpath
func canonical(b uint8) *tagPage { return &uniformPages[b&0xF] }

// isCanonical reports whether pg is one of the shared uniform pages, by
// pointer identity only. It deliberately reads no page bytes: pg may be a
// private page another goroutine is word-filling (disjoint-granule retags
// of one tag page are allowed concurrency), so even peeking at pg[0] to
// pick the comparison target would be a data race.
//
//mte4jni:fastpath
func isCanonical(pg *tagPage) bool {
	for i := range uniformPages {
		if pg == &uniformPages[i] {
			return true
		}
	}
	return false
}

// tagDir is the materialized page-pointer directory of one mapping: the
// atomic page pointers plus the private-page bit index. The slices are
// immutable after construction; only the entries move.
type tagDir struct {
	pages []atomic.Pointer[tagPage]
	// priv is a one-bit-per-page "directory entry is a materialized private
	// page" index (32 pages per word). The retag fast path tests one bit
	// instead of comparing against all 16 canonical pages; see setPartial
	// for the publication ordering that makes the bit trustworthy.
	priv []atomic.Uint32
}

// tagTable is one mapping's two-level tag store: a lazily materialized
// directory plus a back pointer to the owning Space for page recycling and
// accounting. A fresh mapping carries a nil directory — every granule is
// implicitly tag 0, the same state an eager all-zero-canonical directory
// would encode — so a huge mapping that is mapped but never tagged pays
// zero directory footprint (ROADMAP PR 7 "remaining headroom"). The
// directory materializes on the first tag touch that can produce a
// non-zero observation: any non-zero setRange, or a partial-page paint.
type tagTable struct {
	space *Space
	// dir is nil until the first tag touch; thereafter it points at the
	// mapping's one-and-only directory (CAS-published, never replaced).
	dir atomic.Pointer[tagDir]
	// granules is the mapping's true granule count, which the last
	// directory entry may overshoot (mappings are 4 KiB-rounded, tag pages
	// are wider); kept for the flat-equivalent accounting. npages is the
	// directory length a materialization will allocate.
	granules int
	npages   int
}

// privBit reports whether page pi is materialized. A set bit is published
// only after the private page is fully built and installed in the
// directory (setPartial), so an observer that sees the bit may reload the
// directory entry and fill it in place without inspecting the page.
//
//mte4jni:fastpath
func (d *tagDir) privBit(pi int) bool {
	return d.priv[pi>>5].Load()>>(pi&31)&1 != 0
}

// setPrivBit / clearPrivBit flip page pi's bit with a CAS loop (neighbour
// pages share the word and may flip their own bits concurrently). Both are
// off the steady-state path: bits change only when a page materializes or
// is displaced.
func (d *tagDir) setPrivBit(pi int) {
	w := &d.priv[pi>>5]
	for {
		old := w.Load()
		if w.CompareAndSwap(old, old|1<<(pi&31)) {
			return
		}
	}
}

func (d *tagDir) clearPrivBit(pi int) {
	w := &d.priv[pi>>5]
	for {
		old := w.Load()
		if w.CompareAndSwap(old, old&^(1<<(pi&31))) {
			return
		}
	}
}

// newTagTable builds the table for a mapping of the given granule count.
// No directory is allocated yet: a nil directory reads as the canonical
// zero page everywhere, which is exactly the fresh-mapping state. The
// directory length rounds up: the tail of the last tag page may cover
// granules past the mapping's end, which no access can ever index.
func newTagTable(s *Space, granules int) *tagTable {
	t := &tagTable{
		space:    s,
		granules: granules,
		npages:   (granules + tagPageGranules - 1) / tagPageGranules,
	}
	s.tagFlatBytes.Add(int64(granules))
	return t
}

// materialize returns the directory, building it on first use: every entry
// deduplicated against the canonical zero page (the state a nil directory
// already encodes, so readers racing the CAS observe no tag change). The
// loser of the publication race frees its candidate by dropping it; the
// winner takes over the accounting the eager constructor used to do —
// zero-dedup hits for the fresh entries plus the directory bytes — and
// bumps the DirsMaterialized counter that makes laziness observable.
func (t *tagTable) materialize() *tagDir {
	for {
		if d := t.dir.Load(); d != nil {
			return d
		}
		n := t.npages
		d := &tagDir{
			pages: make([]atomic.Pointer[tagPage], n),
			priv:  make([]atomic.Uint32, (n+31)/32),
		}
		zero := canonical(0)
		for i := range d.pages {
			d.pages[i].Store(zero)
		}
		if t.dir.CompareAndSwap(nil, d) {
			s := t.space
			s.tagDirsMaterialized.Add(1)
			s.tagZeroDedup.Add(uint64(n))
			s.tagDirBytes.Add(int64(n)*tagDirEntryBytes + int64(len(d.priv))*4)
			// Publishing the directory invalidates every TLB entry whose Aux
			// slot still says "unmaterialized" (lookup caches the resolved
			// *tagDir there so the access fast path pays a single pointer
			// hop; see Space.lookup). Materialization happens at most once
			// per mapping, so the flush-everything cost is a non-event.
			s.epoch.Add(1)
			return d
		}
	}
}

// page resolves one directory entry. A nil directory — the mapping has
// never been tagged — reads as the canonical zero page without
// materializing anything, so checked loads over untouched mappings stay
// allocation-free.
//
//mte4jni:fastpath
func (t *tagTable) page(pi int) *tagPage {
	d := t.dir.Load()
	if d == nil {
		return canonical(0)
	}
	return d.pages[pi].Load()
}

// directory returns the materialized directory, or nil when the mapping
// has never been tagged. The access engine caches the result in the TLB
// Aux slot; the nil→non-nil transition is covered by materialize's epoch
// bump.
//
//mte4jni:fastpath
func (t *tagTable) directory() *tagDir { return t.dir.Load() }

// page resolves one entry of a materialized directory — the single pointer
// load on the checked-access fast path. tagTable.page/tagDir.page are the
// only raw directory reads outside construction (the storage representation
// stays private to this file; tools/lintrepo's tagtable-encapsulation pass
// enforces it).
//
//mte4jni:fastpath
func (d *tagDir) page(pi int) *tagPage { return d.pages[pi].Load() }

// fillTags fills span with the tag byte — the software st2g/dc-gva fill
// loop. Spans here are at most one tag page (tagPageBytes); whole pages
// never reach a fill at all, they become directory swaps. Large spans seed
// 64 bytes of word stores and then double with copy — the memmove-backed
// fill the flat array used, which beats a store loop well before the
// half-page fills the Fig5 acquire/release path produces.
func fillTags(span []uint8, b uint8) {
	w := replicate8(b)
	const seed = 64
	if n := len(span); n > 2*seed {
		for i := 0; i < seed; i += 8 {
			binary.LittleEndian.PutUint64(span[i:], w)
		}
		for filled := seed; filled < n; filled *= 2 {
			copy(span[filled:], span[:filled])
		}
		return
	}
	i := 0
	for ; i+8 <= len(span); i += 8 {
		binary.LittleEndian.PutUint64(span[i:], w)
	}
	for ; i < len(span); i++ {
		span[i] = b
	}
}

// setRange paints granules [lo, hi) with tag b. Fully covered tag pages are
// swapped to the canonical uniform page of b — O(1) per page, no byte
// traffic — and partially covered edge pages are materialized copy-on-tag
// (or filled in place when already private).
//
// The uniform sweep batches its accounting: one counter add per call rather
// than per page, so the per-page cost of a large retag is a single atomic
// pointer swap — the locked-instruction budget that keeps SetTagRange/n
// competitive with the flat array's word fill at small n while staying
// O(pages) instead of O(granules) at large n.
func (t *tagTable) setRange(lo, hi int, b uint8) {
	if lo >= hi {
		return
	}
	if b&0xF == 0 && t.dir.Load() == nil {
		// Painting tag 0 over a never-tagged mapping is a no-op: a nil
		// directory already reads as all-zero. Staying lazy here skips the
		// per-call uniform/zero-dedup accounting an eager directory would
		// have recorded, which is deliberate — nothing was swapped because
		// nothing exists yet.
		return
	}
	d := t.materialize()
	first, last := lo>>tagPageShift, (hi-1)>>tagPageShift
	if pi := first; lo&tagPageMask != 0 || pi == last && hi&tagPageMask != 0 {
		segHi := tagPageGranules
		if pi == last {
			segHi = (hi-1)&tagPageMask + 1
		}
		t.setPartial(d, pi, lo&tagPageMask, segHi, b)
		first++
	}
	if hi&tagPageMask != 0 && last >= first {
		t.setPartial(d, last, 0, (hi-1)&tagPageMask+1, b)
		last--
	}
	if first > last {
		return
	}
	want := canonical(b)
	s := t.space
	uniform, displaced := 0, 0
	for pi := first; pi <= last; pi++ {
		if d.pages[pi].Load() == want {
			continue
		}
		old := d.pages[pi].Swap(want)
		if old == want {
			continue
		}
		uniform++
		if d.privBit(pi) {
			d.clearPrivBit(pi)
			s.putTagPage(old)
			displaced++
		}
	}
	if uniform > 0 {
		s.tagUniform.Add(uint64(uniform))
		if b&0xF == 0 {
			s.tagZeroDedup.Add(uint64(uniform))
		}
	}
	if displaced > 0 {
		s.tagResidentPages.Add(-int64(displaced))
	}
}

// setPartial paints granules [segLo, segHi) of page pi with b. A private
// page is filled in place — the word fill touches only the bytes of the
// range's own granules, the same unbracketed discipline the flat array's
// fill relied on (readers of those granules are serialized by the object
// entry locks, readers of other granules touch disjoint bytes); a canonical
// page of a different color is materialized: a freelist page is built
// complete — uniform background, then the painted span — and published with
// a CAS, so concurrent readers see the old or the finished page, never a
// torn one.
//
// The steady-state in-place branch keys off the priv bit, not a canonical-
// page scan: the bit is set only after the CAS installs the finished page,
// so seeing it means a fresh directory load yields a private page whose
// other granules may be filled concurrently but whose identity is stable
// (only exclusive whole-page retags displace a private page). The converse
// window — directory already private, bit not yet visible — parks in the
// isCanonical spin below until the publisher's bit lands, which also keeps
// a CAS loser from treating the winner's page as a canonical background.
func (t *tagTable) setPartial(d *tagDir, pi, segLo, segHi int, b uint8) {
	for {
		if d.privBit(pi) {
			cur := d.pages[pi].Load()
			fillTags(cur[segLo:segHi], b)
			return
		}
		cur := d.pages[pi].Load()
		if !isCanonical(cur) {
			// Publication in flight: the page is installed but its priv
			// bit is not visible yet. Loop until it is.
			continue
		}
		if cur[0] == b&0xF {
			// The whole page already carries this tag.
			return
		}
		np := t.space.takeTagPage()
		fillTags(np[:], cur[0])
		fillTags(np[segLo:segHi], b)
		if d.pages[pi].CompareAndSwap(cur, np) {
			d.setPrivBit(pi)
			t.space.tagMaterialized.Add(1)
			t.space.tagResidentPages.Add(1)
			return
		}
		// Another thread repainted the page first; recycle and retry
		// against whatever it installed.
		t.space.putTagPage(np)
	}
}

// release returns every materialized page to the Space freelist and drops
// the directory from the accounting — the Unmap path. The entries are reset
// to the zero page so a stale reader through a retained handle sees
// well-formed (if meaningless) storage rather than a dangling page. A
// never-materialized table has nothing to return: only the flat-equivalent
// accounting unwinds.
func (t *tagTable) release() {
	s := t.space
	s.tagFlatBytes.Add(-int64(t.granules))
	d := t.dir.Load()
	if d == nil {
		return
	}
	zero := canonical(0)
	for i := range d.pages {
		if pg := d.pages[i].Swap(zero); d.privBit(i) {
			d.clearPrivBit(i)
			s.putTagPage(pg)
			s.tagResidentPages.Add(-1)
		}
	}
	s.tagDirBytes.Add(-int64(len(d.pages))*tagDirEntryBytes - int64(len(d.priv))*4)
}

// takeTagPage pops a recycled page off the freelist, allocating only when
// the freelist is dry.
func (s *Space) takeTagPage() *tagPage {
	s.tagFreeMu.Lock()
	if n := len(s.tagFree); n > 0 {
		pg := s.tagFree[n-1]
		s.tagFree[n-1] = nil
		s.tagFree = s.tagFree[:n-1]
		s.tagFreeMu.Unlock()
		return pg
	}
	s.tagFreeMu.Unlock()
	return new(tagPage)
}

// putTagPage returns a displaced private page for reuse.
func (s *Space) putTagPage(pg *tagPage) {
	s.tagFreeMu.Lock()
	s.tagFree = append(s.tagFree, pg)
	s.tagFreeMu.Unlock()
}

// TagStats is a point-in-time view of the space's storage accounting: the
// hierarchical tag table and the paged data plane.
type TagStats struct {
	// PagesMaterialized counts copy-on-tag materializations (monotonic).
	PagesMaterialized uint64
	// PagesUniform counts directory entries repointed at a canonical
	// uniform page by SetTagRange (monotonic; initial zero-page entries are
	// counted under ZeroDedupHits instead).
	PagesUniform uint64
	// ZeroDedupHits counts directory entries sharing the canonical zero
	// page: every entry of a fresh MTE mapping plus every full-page
	// ZeroTagRange (monotonic).
	ZeroDedupHits uint64
	// PagesResident is the materialized-page gauge; FreePages counts
	// recycled pages parked on the freelist (backed by memory but not
	// attributed to any mapping).
	PagesResident uint64
	FreePages     uint64
	// DirsMaterialized counts directory materializations (monotonic): a
	// mapping's page-pointer directory is allocated lazily on the first
	// tag touch, so mapped-but-never-tagged address space contributes
	// nothing here and nothing to DirBytes.
	DirsMaterialized uint64
	// DirBytes is the root-directory overhead across live MTE mappings
	// whose directory has materialized, reported separately from the
	// page bytes so the directory's share of the footprint is visible.
	DirBytes uint64
	// BytesResident is the tag-storage footprint the space actually pays:
	// materialized pages plus directories.
	BytesResident uint64
	// BytesFlatEquiv is what the pre-hierarchical flat tag array would pay
	// for the same mappings (one byte per granule of actual mapping size,
	// allocated eagerly).
	BytesFlatEquiv uint64

	// The paged data plane (datapages.go) reports on the same path.
	// DataPagesMaterialized counts data pages a first store filled in
	// (monotonic). DataBytesResident is the data memory live mappings
	// actually hold — materialized pages plus page directories — and
	// DataBytesMapped is their mapped size, what a flat backing array
	// would hold.
	DataPagesMaterialized uint64
	DataBytesResident     uint64
	DataBytesMapped       uint64
}

// TagStats returns the space's tag-storage accounting.
func (s *Space) TagStats() TagStats {
	s.tagFreeMu.Lock()
	free := uint64(len(s.tagFree))
	s.tagFreeMu.Unlock()
	resident := uint64(s.tagResidentPages.Load())
	dir := uint64(s.tagDirBytes.Load())
	return TagStats{
		PagesMaterialized: s.tagMaterialized.Load(),
		PagesUniform:      s.tagUniform.Load(),
		ZeroDedupHits:     s.tagZeroDedup.Load(),
		PagesResident:     resident,
		FreePages:         free,
		DirsMaterialized:  s.tagDirsMaterialized.Load(),
		DirBytes:          dir,
		BytesResident:     resident*tagPageBytes + dir,
		BytesFlatEquiv:    uint64(s.tagFlatBytes.Load()),

		DataPagesMaterialized: s.dataMaterialized.Load(),
		DataBytesResident:     uint64(s.dataResidentPages.Load())*dataPageSize + uint64(s.dataDirBytes.Load()),
		DataBytesMapped:       uint64(s.dataMappedBytes.Load()),
	}
}

// TagBytesResident returns the bytes of tag storage currently backing the
// space's MTE mappings: materialized private pages plus directory overhead.
// Freelist pages are excluded — they are recycling capacity, not footprint
// attributed to a mapping — and reported separately in TagStats.FreePages.
func (s *Space) TagBytesResident() uint64 {
	return uint64(s.tagResidentPages.Load())*tagPageBytes + uint64(s.tagDirBytes.Load())
}
