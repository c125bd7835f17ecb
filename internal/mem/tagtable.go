package mem

import (
	"encoding/binary"
	"unsafe"

	"mte4jni/internal/mte"
)

// Hierarchical two-level tag storage (DESIGN.md "Hierarchical tag storage").
//
// The flat one-byte-per-granule tag array of PR 2 made per-VM tag footprint
// proportional to mapped size: a 32 MiB pool session paid 2 MiB of tag bytes
// whether it touched one object or a million. Following Partap & Boneh's
// "Memory Tagging: A Memory Efficient Design" (PAPERS.md), tag storage is
// a two-level table: a directory with one entry per tag page — a tag page
// covers tagPageGranules granules of data (16 KiB, one data page, so the
// tag and data directories share one page index) — where each entry points
// at either
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
// Map builds a ProtMTE mapping's directory eagerly, with the constructor
// that builds its data directory (newDir), every entry on the canonical
// zero page. The directory is the Mapping.tagPages slice, nil for untagged
// mappings, and it never changes length for the mapping's lifetime.
//
// The access fast path is unchanged in shape: one directory load resolves the
// page, then the same single-byte compare (intra-granule accesses) or SWAR
// word sweep (spans) as before runs over the page's bytes — canonical and
// private pages are both plain byte arrays, so the compare code cannot tell
// them apart and does not need to. Spans get one new fast-out: a page whose
// directory entry *is* the canonical page of the wanted tag matches without
// reading a single tag byte. The per-thread TLB caches only the mapping;
// tag-page pointers are never cached, since SetTagRange swaps directory
// entries without an epoch bump.
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
// discipline documented on Mapping.tagPages already serializes against
// readers of those same granules — exactly the contract the flat array
// relied on. Full-page retags (atomic Swap to a canonical page) only race
// with partial retags of the same page if two SetTagRange calls overlap,
// which the same discipline forbids.
//
// Displaced private pages become garbage for the Go collector, as released
// data pages do (datapages.go "No freelist").

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

// isCanonical reports whether pg is one of the shared uniform pages: whether
// its address lies inside uniformPages. It deliberately reads no page bytes:
// pg may be a private page another goroutine is word-filling
// (disjoint-granule retags of one tag page are allowed concurrency), so even
// peeking at pg[0] would be a data race. The address test is O(1);
// comparing pg against each of the 16 canonical pointers instead made
// SetTagRange at n=64 and n=1024 about 1.4-1.8x slower (2-vCPU x86 host).
//
//mte4jni:fastpath
func isCanonical(pg *tagPage) bool {
	off := uintptr(unsafe.Pointer(pg)) - uintptr(unsafe.Pointer(&uniformPages))
	return off < unsafe.Sizeof(uniformPages)
}

// mapTags builds a ProtMTE mapping's tag directory — the tag-plane half of
// Map, run before the mapping is published. Every entry starts on the
// canonical zero page and counts as a zero-dedup hit.
func (m *Mapping) mapTags() {
	n := len(m.pages)
	m.tagPages = newDir(n, canonical(0))
	s := m.space
	s.tagZeroDedup.Add(uint64(n))
	s.tagDirBytes.Add(int64(n) * tagDirEntryBytes)
	s.tagFlatBytes.Add(int64(m.size >> mte.GranuleShift))
}

// Tagged reports whether the mapping carries MTE tag storage.
func (m *Mapping) Tagged() bool { return m.tagPages != nil }

// tpage resolves entry pi of the tag directory — the single pointer load on
// the checked-access fast path. mapTags, Tagged, tpage, setTags and
// releaseTags are the only way other files reach the directory (the storage
// representation stays private to this file; tools/lintrepo's
// tagtable-encapsulation pass enforces it).
//
//mte4jni:fastpath
func (m *Mapping) tpage(pi int) *tagPage { return m.tagPages[pi].Load() }

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

// setTags paints granules [lo, hi) of a tagged mapping with tag b. Fully
// covered tag pages are swapped to the canonical uniform page of b — O(1)
// per page, no byte traffic — and partially covered edge pages are
// materialized copy-on-tag (or filled in place when already private).
//
// The uniform sweep batches its accounting: one counter add per call rather
// than per page, so the per-page cost of a large retag is a single atomic
// pointer swap — the locked-instruction budget that keeps SetTagRange/n
// competitive with the flat array's word fill at small n while staying
// O(pages) instead of O(granules) at large n.
func (m *Mapping) setTags(lo, hi int, b uint8) {
	if lo >= hi {
		return
	}
	first, last := lo>>tagPageShift, (hi-1)>>tagPageShift
	if pi := first; lo&tagPageMask != 0 || pi == last && hi&tagPageMask != 0 {
		segHi := tagPageGranules
		if pi == last {
			segHi = (hi-1)&tagPageMask + 1
		}
		m.setPartial(pi, lo&tagPageMask, segHi, b)
		first++
	}
	if hi&tagPageMask != 0 && last >= first {
		m.setPartial(last, 0, (hi-1)&tagPageMask+1, b)
		last--
	}
	if first > last {
		return
	}
	d := m.tagPages
	want := canonical(b)
	uniform, displaced := 0, 0
	for pi := first; pi <= last; pi++ {
		if d[pi].Load() == want {
			continue
		}
		old := d[pi].Swap(want)
		if old == want {
			continue
		}
		uniform++
		if !isCanonical(old) {
			displaced++
		}
	}
	s := m.space
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
// page of a different color is materialized: a fresh page is built
// complete — uniform background, then the painted span — and published with
// a CAS, so concurrent readers see the old or the finished page, never a
// torn one. A CAS loser drops its page and, on the retry, fills the
// winner's page in place. Only exclusive whole-page retags displace a
// private page, so a page this loop finds private stays this page's
// storage while it fills.
func (m *Mapping) setPartial(pi, segLo, segHi int, b uint8) {
	e := &m.tagPages[pi]
	for {
		cur := e.Load()
		if !isCanonical(cur) {
			fillTags(cur[segLo:segHi], b)
			return
		}
		bg := cur[0]
		if bg == b&0xF {
			// The whole page already carries this tag.
			return
		}
		np := new(tagPage)
		fillTags(np[:], bg)
		fillTags(np[segLo:segHi], b)
		if e.CompareAndSwap(cur, np) {
			m.space.tagMaterialized.Add(1)
			m.space.tagResidentPages.Add(1)
			return
		}
	}
}

// releaseTags drops the mapping's tag plane — the Unmap path. Private pages
// become garbage for the Go collector; only the accounting unwinds. Unmap's
// quiescence rule means no retag runs concurrently, so the private-page
// count read here is final.
func (m *Mapping) releaseTags() {
	if m.tagPages == nil {
		return
	}
	private := 0
	for i := range m.tagPages {
		if !isCanonical(m.tagPages[i].Load()) {
			private++
		}
	}
	s := m.space
	s.tagResidentPages.Add(-int64(private))
	s.tagDirBytes.Add(-int64(len(m.tagPages)) * tagDirEntryBytes)
	s.tagFlatBytes.Add(-int64(m.size >> mte.GranuleShift))
	m.tagPages = nil
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
	// PagesResident is the materialized-page gauge.
	PagesResident uint64
	// DirBytes is the directory overhead across live MTE mappings, one
	// entry per tag page, reported separately from the page bytes so the
	// directory's share of the footprint is visible.
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
	resident := uint64(s.tagResidentPages.Load())
	dir := uint64(s.tagDirBytes.Load())
	return TagStats{
		PagesMaterialized: s.tagMaterialized.Load(),
		PagesUniform:      s.tagUniform.Load(),
		ZeroDedupHits:     s.tagZeroDedup.Load(),
		PagesResident:     resident,
		DirBytes:          dir,
		BytesResident:     resident*tagPageBytes + dir,
		BytesFlatEquiv:    uint64(s.tagFlatBytes.Load()),

		DataPagesMaterialized: s.dataMaterialized.Load(),
		DataBytesResident:     uint64(s.dataResidentPages.Load())*dataPageSize + uint64(s.dataDirBytes.Load()),
		DataBytesMapped:       uint64(s.dataMappedBytes.Load()),
	}
}
