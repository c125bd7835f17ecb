package mem

import (
	"encoding/binary"
	"sync/atomic"

	"mte4jni/internal/mte"
)

// Paged data plane (DESIGN.md "Paged data plane").
//
// A mapping's bytes live in a directory of fixed-size data pages that fills
// in lazily — the data-plane twin of the hierarchical tag table
// (tagtable.go). A pool session maps a 32 MiB Java heap and a 64 MiB native
// heap and touches a few MiB at most, so memory is paid for only where it
// is written. The directory starts with every entry pointing at one shared,
// never-written zero page, and the first store to a page (checked,
// unguarded or raw) publishes a fresh zeroed page in its place. Mapping a
// session allocates its directories — one pointer per 16 KiB, plus one
// more for the tag plane of a ProtMTE mapping — and nothing else.
//
// # Concurrency
//
// Directory entries are atomic pointers. A load is one atomic load into the
// page, and untouched memory reads the zero page, so the load path has no
// branch on materialization. A store that finds the zero page takes the
// outlined materializePage slow path: it allocates a zeroed page and
// CAS-publishes it over the zero page. A store that loses that race writes
// into the winner's page, never into its own, so concurrent first stores to
// one page all land. Once published, a page is never replaced for the
// mapping's lifetime; byte-level races inside a page are governed by the
// object entry locks and the scan-lock bracket of Mapping.storeLock.
//
// # No freelist
//
// Each VM owns its Space, and a rebuilt pool session gets a new one. A
// retired session's pages become garbage when its mappings are unmapped,
// and the Go allocator hands out zeroed memory, so no tenant can read
// another tenant's bytes and retiring a session does no page-recycling
// work. Anonymous mmap was the alternative: it keeps a flat slice on the
// fast path, but it moves simulated memory out of the race detector's view
// (the concurrent GC-scan tests rely on -race seeing it), and it puts
// munmap on the quarantine path, where a stale slice used after munmap
// crashes the daemon instead of failing a bounds check.

const (
	// dataPageShift sizes a data page to the data span of one tag page
	// (tagPageGranules granules of mte.GranuleSize bytes, 16 KiB), so one
	// page index addresses both planes.
	dataPageShift = tagPageShift + mte.GranuleShift
	// dataPageSize and dataPageMask split a mapping offset into (page
	// index, in-page offset).
	dataPageSize = 1 << dataPageShift
	dataPageMask = dataPageSize - 1
	// dataDirEntryBytes is the accounting cost of one directory entry.
	dataDirEntryBytes = 8
)

// dataPage is one page of mapping bytes.
type dataPage [dataPageSize]byte

// zeroPage backs every data page no store has touched, in every mapping of
// every Space. It is never written: stores materialize a private page
// first. It is heap-allocated like every other page: as a package-level
// array it made 16 KiB copies out of untouched memory ~16% slower than
// copies out of a written page (measured, cause not isolated).
var zeroPage = new(dataPage)

// newDir builds a page directory of n >= 1 entries, every one on the shared
// page pg. Map builds both of a mapping's directories with it: the data
// directory on zeroPage and, for ProtMTE mappings, the tag directory on the
// canonical zero tag page (tagtable.go), so one page index addresses both
// planes. The directory is filled with doubling copies rather than one
// atomic store per entry; that is sound because nothing can read it before
// Map publishes the mapping in the snapshot, an atomic store that orders
// these writes before every reader's load.
func newDir[P any](n int, pg *P) []atomic.Pointer[P] {
	d := make([]atomic.Pointer[P], n)
	d[0].Store(pg)
	for filled := 1; filled < n; filled *= 2 {
		copy(d[filled:], d[:filled])
	}
	return d
}

// rpage returns page pi for reading: the mapping's own page once a store
// has touched it, the shared zero page before.
//
//mte4jni:fastpath
func (m *Mapping) rpage(pi uint64) *dataPage { return m.pages[pi].Load() }

// wpage returns page pi for writing, materializing it on first touch.
//
//mte4jni:fastpath
func (m *Mapping) wpage(pi uint64) *dataPage {
	if pg := m.pages[pi].Load(); pg != zeroPage {
		return pg
	}
	return m.materializePage(pi)
}

// materializePage is the first-store slow path: publish a fresh zeroed page
// over the zero page, or — when another store won the race — return the
// winner's page. It is outlined so the store fast path stays
// allocation-free.
//
//go:noinline
func (m *Mapping) materializePage(pi uint64) *dataPage {
	np := new(dataPage)
	if m.pages[pi].CompareAndSwap(zeroPage, np) {
		m.resident.Add(1)
		m.space.dataMaterialized.Add(1)
		m.space.dataResidentPages.Add(1)
		return np
	}
	return m.pages[pi].Load()
}

// The fixed-width accessors (Load16..Store64, checked and unguarded) decode
// the value in place in its page. rwindow and wwindow are small enough to
// inline into every accessor, and returning the page with an offset the
// range check has bounded lets the compiler drop the slice bounds checks.
// They report !ok when the value straddles two pages (only unaligned
// accesses can), and wwindow also when the page is still the zero page; the
// accessor then takes the outlined loadSlow/storeSlow path. An access that
// stays inside one granule never straddles: data pages are granule-aligned.

// rwindow returns the page holding [off, off+n) for reading and off's
// position in it; ok is false when the range straddles a page boundary.
//
//mte4jni:fastpath
func (m *Mapping) rwindow(off, n uint64) (pg *dataPage, in uint64, ok bool) {
	in = off & dataPageMask
	if in > dataPageSize-n {
		return nil, 0, false
	}
	return m.rpage(off >> dataPageShift), in, true
}

// wwindow is rwindow for writing; ok is also false when the page is still
// the zero page and has to be materialized first.
//
//mte4jni:fastpath
func (m *Mapping) wwindow(off, n uint64) (pg *dataPage, in uint64, ok bool) {
	in = off & dataPageMask
	pg = m.rpage(off >> dataPageShift)
	if in > dataPageSize-n || pg == zeroPage {
		return nil, 0, false
	}
	return pg, in, true
}

// loadSlow reads an n-byte little-endian value (n <= 8) across a page
// boundary, zero-extended.
//
//go:noinline
func (m *Mapping) loadSlow(off uint64, n int) uint64 {
	var b [8]byte
	m.readAt(off, b[:n])
	return binary.LittleEndian.Uint64(b[:])
}

// storeSlow writes the low n bytes of v (n <= 8) through the page walk,
// materializing what it writes.
//
//go:noinline
func (m *Mapping) storeSlow(off uint64, n int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.writeAt(off, b[:n])
}

// readAt copies the mapping bytes at [off, off+len(dst)) into dst, page by
// page; untouched pages read as zeros.
//
//mte4jni:fastpath
func (m *Mapping) readAt(off uint64, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, m.rpage(off >> dataPageShift)[off&dataPageMask:])
		dst = dst[n:]
		off += uint64(n)
	}
}

// writeAt copies src into the mapping at off, page by page, materializing
// each page it writes.
//
//mte4jni:fastpath
func (m *Mapping) writeAt(off uint64, src []byte) {
	for len(src) > 0 {
		n := copy(m.wpage(off >> dataPageShift)[off&dataPageMask:], src)
		src = src[n:]
		off += uint64(n)
	}
}

// zeroAt clears [off, off+n). Pages still on the zero page are skipped, so
// zeroing memory nobody wrote materializes nothing.
//
//mte4jni:fastpath
func (m *Mapping) zeroAt(off, n uint64) {
	for n > 0 {
		in := off & dataPageMask
		k := min(n, dataPageSize-in)
		if pg := m.rpage(off >> dataPageShift); pg != zeroPage {
			clear(pg[in : in+k])
		}
		off += k
		n -= k
	}
}

// moveAt copies n bytes from src at soff to dst at doff with memmove
// semantics: when both ranges lie in one mapping and the destination
// overlaps above the source, pages are walked in descending order, so no
// source byte is overwritten before it is read. Each step copies the
// largest run that stays inside one page on both sides; copy itself is a
// memmove, which covers overlap within that run.
//
//mte4jni:fastpath
func moveAt(dst *Mapping, doff uint64, src *Mapping, soff uint64, n uint64) {
	if dst == src && doff > soff && doff < soff+n {
		for n > 0 {
			dEnd, sEnd := doff+n, soff+n
			k := min(n, (dEnd-1)&dataPageMask+1, (sEnd-1)&dataPageMask+1)
			d, s := (dEnd-k)&dataPageMask, (sEnd-k)&dataPageMask
			copy(dst.wpage((dEnd - 1) >> dataPageShift)[d:d+k], src.rpage((sEnd - 1) >> dataPageShift)[s:s+k])
			n -= k
		}
		return
	}
	for n > 0 {
		d, s := doff&dataPageMask, soff&dataPageMask
		k := min(n, dataPageSize-d, dataPageSize-s)
		copy(dst.wpage(doff >> dataPageShift)[d:d+k], src.rpage(soff >> dataPageShift)[s:s+k])
		doff += k
		soff += k
		n -= k
	}
}

// visitAt calls fn on consecutive read-only windows covering [off, off+n),
// in address order. Untouched pages are presented as the shared zero page.
func (m *Mapping) visitAt(off, n uint64, fn func(window []byte)) {
	for n > 0 {
		in := off & dataPageMask
		k := min(n, dataPageSize-in)
		fn(m.rpage(off >> dataPageShift)[in : in+k])
		off += k
		n -= k
	}
}

// releasePages drops the mapping's data plane — the Unmap path. The pages
// become garbage for the Go collector; only the accounting unwinds.
func (m *Mapping) releasePages() {
	s := m.space
	s.dataResidentPages.Add(-m.resident.Load())
	s.dataMappedBytes.Add(-int64(m.size))
	s.dataDirBytes.Add(-int64(len(m.pages)) * dataDirEntryBytes)
	m.pages = nil
}
